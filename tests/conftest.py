import hypothesis
import numpy as np

from mmcluster.local_pca import batch_local_models
from mmcluster.neighborhoods import balls, build_index

hypothesis.settings.register_profile("suite", deadline=None, max_examples=40)
hypothesis.settings.load_profile("suite")


def random_orthonormal(rng, ambient, rank):
    """Orthonormal (ambient, rank) basis from a Gaussian draw."""
    g = rng.normal(size=(ambient, rank))
    q, _ = np.linalg.qr(g)
    return q[:, :rank]


def random_projection(rng, ambient, rank):
    b = random_orthonormal(rng, ambient, rank)
    return b @ b.T


def random_symmetric(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) * scale
    return 0.5 * (a + a.T)


def ball_models(cloud, centers, r, **mode):
    """``batch_local_models`` over the closed r-balls of the points at the
    indices ``centers``, as alg4 calls it on its centers."""
    y = cloud.coords[np.asarray(centers, dtype=int)]
    return batch_local_models(cloud, y, balls(build_index(cloud.coords), y, r), **mode)
