import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components as csgraph_components

from conftest import ball_models
from mmcluster import cli, cluster
from mmcluster.affinity import (PAIR_BUILDERS, ScaleParams, auto_epsilon, auto_eta,
                                gaussian_product_affinity)
from mmcluster.neighborhoods import PointCloud, build_index, subsample_centers


def run_cli(args):
    return cli.main([str(a) for a in args])


def segment_csv(path, n=600, tau=0.0):
    t = np.linspace(-1.0, 1.0, n)
    coords = np.column_stack([t, np.zeros(n)])
    cloud = PointCloud(coords, labels=np.ones(n, dtype=int), seed=42)
    cli.write_cloud_csv(cloud, str(path))
    return cloud


# PointCloud rejects coordinates whose squared distances could overflow
finite = st.floats(-1e150, 1e150, allow_nan=False)
WORDS = st.text(alphabet="abcxyz_", min_size=1, max_size=6)


@st.composite
def clouds(draw):
    n = draw(st.integers(1, 8))
    dim = draw(st.integers(1, 4))
    coords = np.array(draw(st.lists(st.lists(finite, min_size=dim, max_size=dim),
                                    min_size=n, max_size=n)))
    labels = draw(st.none() | st.lists(st.integers(1, 5), min_size=n, max_size=n))
    n_clusters = draw(st.none() | st.integers(5, 9))
    return PointCloud(coords, labels=labels, seed=draw(st.none() | st.integers(0, 2**64)),
                      intrinsic_dim=draw(st.none() | st.integers(1, dim)),
                      n_clusters=n_clusters)


@st.composite
def malformed_csv(draw):
    """A point-cloud CSV with one defect: a ragged row, a non-numeric cell,
    a coordinate too large to square, a non-integer label, non-integer
    metadata, or no data rows."""
    cloud = draw(clouds())
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "cloud.csv")
        cli.write_cloud_csv(cloud, path)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    row = draw(st.integers(first, len(lines) - 1))
    cells = lines[row].split(",")
    kinds = ["ragged", "non_numeric", "huge", "bad_metadata", "empty"]
    kind = draw(st.sampled_from(kinds + ["non_integer_label"] * (cloud.labels is not None)))
    if kind == "ragged":
        cells = cells[:-1] if len(cells) > 1 and draw(st.booleans()) else cells + ["0"]
    elif kind == "non_numeric":
        cells[draw(st.integers(0, cloud.dim - 1))] = draw(WORDS)
    elif kind == "huge":
        cells[draw(st.integers(0, cloud.dim - 1))] = draw(st.sampled_from(["1e200", "-1e300"]))
    elif kind == "non_integer_label":
        cells[-1] = draw(WORDS | st.floats(0.01, 0.99).map(lambda f: repr(1 + f)))
    elif kind == "bad_metadata":
        # after the written metadata, so that no valid line overrides it
        key = draw(st.sampled_from(["seed", "intrinsic_dim", "n_clusters"]))
        lines.insert(first - 1, f"# {key}: {draw(WORDS | st.just('2.5'))}")
        row += 1
    else:
        return draw(st.sampled_from(["", "\n", lines[first - 1] + "\n",
                                     "# mmcluster point cloud\n"]))
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


class TestGenerate:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "cloud.csv"
        rc = run_cli(["generate", "--dataset", "two_segments", "--n", 10,
                      "--tau", 0, "--seed", 3, "--out", out])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "x0,x1,label"
        assert len(lines) == 11  # header + 10 points

    def test_byte_identical_regeneration(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["generate", "--dataset", "two_curves_angle", "--n", 60,
                "--tau", 0.01, "--angle", "pi/4", "--seed", 9]
        assert run_cli(args + ["--out", a]) == 0
        assert run_cli(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_identity(self, tmp_path):
        out = tmp_path / "cloud.csv"
        run_cli(["generate", "--dataset", "two_spheres", "--n", 50,
                 "--tau", 0.02, "--seed", 11, "--out", out])
        cloud = cli.read_cloud_csv(str(out))
        out2 = tmp_path / "again.csv"
        cli.write_cloud_csv(cloud, str(out2))
        reloaded = cli.read_cloud_csv(str(out2))
        np.testing.assert_array_equal(cloud.coords, reloaded.coords)
        np.testing.assert_array_equal(cloud.labels, reloaded.labels)
        assert cloud.seed == reloaded.seed == 11
        assert cloud.n_clusters == reloaded.n_clusters == 2
        assert cloud.intrinsic_dim == reloaded.intrinsic_dim == 2

    def test_n_rounded_down_to_cluster_multiple(self, tmp_path):
        out = tmp_path / "cloud.csv"
        assert run_cli(["generate", "--dataset", "three_curves", "--n", 1000,
                        "--out", out]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 1 + 999  # header + 3 x 333 points

    @pytest.mark.parametrize("command", ["generate", "experiment"])
    @pytest.mark.parametrize("n", [-5, 0, 1])
    def test_n_below_cluster_count_exit_2(self, tmp_path, capsys, command, n):
        args = [command, "--dataset", "two_segments", "--n", n, "--out", tmp_path / "x"]
        if command == "experiment":
            args += ["--method", "alg4", "--r", 0.1, "--k", 2, "--d", 1, "--trials", 1]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--n" in err
        assert not (tmp_path / "x").exists()


class TestCluster:
    def test_single_segment_alg2(self, tmp_path, capsys):
        data = tmp_path / "seg.csv"
        segment_csv(data)
        out = tmp_path / "labels.csv"
        rc = run_cli(["cluster", data, "--method", "alg2", "--r", 0.1,
                      "--eps", 0.2, "--eta", 1.0, "--out", out])
        assert rc == 0
        report = json.loads((tmp_path / "labels.csv.report.json").read_text())
        assert report["k_found"] == 1
        assert report["misclustering"] == 0.0
        assert report["n_removed"] == 0
        labels = out.read_text().splitlines()
        assert labels[0] == "label"
        assert set(labels[1:]) == {"1"}

    @pytest.mark.parametrize("method", ["alg2", "alg3"])
    def test_components_report_n_edges(self, tmp_path, method):
        data = tmp_path / "seg.csv"
        segment_csv(data)
        out = tmp_path / "labels.csv"
        rc = run_cli(["cluster", data, "--method", method, "--r", 0.1,
                      "--eps", 0.2, "--eta", 0.5, "--out", out])
        assert rc == 0
        report = json.loads((tmp_path / "labels.csv.report.json").read_text())
        run = {"alg2": cluster.algorithm2_cov_components,
               "alg3": cluster.algorithm3_proj_components}[method]
        lab = run(cli.read_cloud_csv(str(data)), ScaleParams(r=0.1, eps=0.2, eta=0.5))
        assert type(report["n_edges"]) is int
        assert report["n_edges"] == lab.info["n_edges"] > 0

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = run_cli(["cluster", tmp_path / "nope.csv", "--method", "alg4",
                      "--r", 0.1, "--k", 2, "--d", 1,
                      "--out", tmp_path / "x.csv"])
        assert rc == 2
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "x0,x1\n1,2\n3\n",
        "x0,x1\n1,abc\n",
        "x0,x1,label\n1,2,1\n3,4,1.5\n",
        "# seed: many\nx0,x1\n1,2\n",
    ], ids=["ragged", "non_numeric", "non_integer_label", "bad_metadata"])
    def test_malformed_csv_exit_2(self, tmp_path, capsys, text):
        data = tmp_path / "bad.csv"
        data.write_text(text)
        rc = run_cli(["cluster", data, "--method", "alg4", "--r", 0.1,
                      "--k", 2, "--d", 1, "--out", tmp_path / "x.csv"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "bad.csv:" in err
        assert "Traceback" not in err

    def test_no_coordinate_column_exit_2(self, tmp_path, capsys):
        data = tmp_path / "labels_only.csv"
        data.write_text("label\n1\n2\n")
        rc = run_cli(["cluster", data, "--method", "alg4", "--r", 0.1,
                      "--k", 2, "--d", 1, "--out", tmp_path / "x.csv"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("method", [["alg4", "--d", 1], ["njw_baseline"]],
                             ids=["alg4", "njw_baseline"])
    def test_frobenius_for_center_graph_exit_2(self, tmp_path, capsys, method):
        # the center-graph pipelines compare in the spectral norm only, so
        # a report recording --norm frobenius would describe a setting no
        # step used
        data = tmp_path / "seg.csv"
        segment_csv(data, n=200)
        out = tmp_path / "x.csv"
        rc = run_cli(["cluster", data, "--method", *method, "--r", 0.1, "--k", 2,
                      "--affinity", "cov", "--norm", "frobenius", "--out", out])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_overflowing_coordinates_exit_2(self, tmp_path, capsys):
        # well-formed, but squared distances of 1e200 overflow float64
        data = tmp_path / "huge.csv"
        data.write_text("x0,x1\n1e200,0\n0,1e200\n1,1\n")
        rc = run_cli(["cluster", data, "--method", "alg4", "--r", 0.1,
                      "--k", 2, "--d", 1, "--out", tmp_path / "x.csv"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_overflowing_covariance_exit_2(self, tmp_path, capsys):
        # inside the squared-distance limit, but the covariance sums overflow
        data = tmp_path / "huge.csv"
        corners = 4e153 * np.random.default_rng(0).choice([-1.0, 1.0], size=(60, 2))
        data.write_text("x0,x1\n" + "".join(f"{x:.17g},{y:.17g}\n" for x, y in corners))
        rc = run_cli(["cluster", data, "--method", "alg2", "--r", 1e154, "--eps", 1e154,
                      "--eta", 0.5, "--out", tmp_path / "x.csv"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @given(data=st.data())
    def test_fuzzed_malformed_csv_exit_2(self, data):
        text = data.draw(malformed_csv())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bad.csv"
            path.write_text(text, encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = run_cli(["cluster", path, "--method", "alg4", "--r", 0.1,
                              "--k", 2, "--d", 1, "--out", Path(tmp) / "x.csv"])
        assert rc == 2, text
        assert err.getvalue().startswith("error: ")
        assert "Traceback" not in err.getvalue()

    @given(clouds())
    def test_fuzzed_cloud_round_trip(self, cloud):
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "cloud.csv")
            cli.write_cloud_csv(cloud, path)
            back = cli.read_cloud_csv(path)
        np.testing.assert_array_equal(back.coords, cloud.coords)
        if cloud.labels is None:
            assert back.labels is None
        else:
            np.testing.assert_array_equal(back.labels, cloud.labels)
        assert (back.seed, back.intrinsic_dim, back.n_clusters) == (
            cloud.seed, cloud.intrinsic_dim, cloud.n_clusters)

    def test_alg4_report_scales_match_recomputation(self, tmp_path):
        data = tmp_path / "cross.csv"
        rc = run_cli(["generate", "--dataset", "two_segments", "--n", 1200,
                      "--tau", 0.01, "--seed", 5, "--out", data])
        assert rc == 0
        out = tmp_path / "labels.csv"
        seed, r = 21, 0.06
        rc = run_cli(["cluster", data, "--method", "alg4", "--r", r,
                      "--k", 2, "--d", 1, "--seed", seed, "--out", out])
        assert rc == 0
        report = json.loads((tmp_path / "labels.csv.report.json").read_text())

        cloud = cli.read_cloud_csv(str(data))
        rng = np.random.default_rng(seed)
        centers = subsample_centers(build_index(cloud.coords), r, rng)
        models = ball_models(cloud, centers, r, d=1)
        eps = auto_epsilon(cloud.coords[centers])
        eta = auto_eta(models, eps)
        assert report["eps_used"] == eps
        assert report["eta_used"] == eta
        w = gaussian_product_affinity(models, eps, eta).toarray()
        assert report["n_edges"] == np.count_nonzero(w) // 2
        assert report["n_isolated"] == 0
        # entries near 1e-250 once joined the two segments into one
        # component; no stored entry is below exp(-6.1^2), so the stored
        # graph has two components, which are the clusters, and no
        # eigensolver runs
        assert report["n_components"] == 2 == csgraph_components(w > 0, directed=False)[0]
        assert report["eigenvalues"] is report["eigengap"] is None
        assert report["kmeans_inertia"] is None

    def test_algorithm_failure_exit_1(self, tmp_path, capsys):
        data = tmp_path / "seg.csv"
        segment_csv(data, n=40)
        rc = run_cli(["cluster", data, "--method", "alg4", "--r", 5.0,
                      "--k", 3, "--d", 1, "--out", tmp_path / "x.csv"])
        assert rc == 1
        assert "TooFewCenters" in capsys.readouterr().err

    def test_all_points_removed_exit_1(self, tmp_path, capsys):
        # a uniform cloud has no tangent: at eta = 1e-6 alg2's band is every point
        data = tmp_path / "uniform.csv"
        cli.write_cloud_csv(PointCloud(np.random.default_rng(0).uniform(size=(400, 2))),
                            str(data))
        rc = run_cli(["cluster", data, "--method", "alg2", "--r", 0.2, "--eps", 0.3,
                      "--eta", 1e-6, "--out", tmp_path / "x.csv"])
        assert rc == 1
        assert "algorithm failure: AllPointsRemoved" in capsys.readouterr().err

    def test_zero_clusters_exit_2(self, tmp_path, capsys):
        # r = 5 packs one center, which would take every point
        data = tmp_path / "seg.csv"
        segment_csv(data, n=40)
        out = tmp_path / "x.csv"
        rc = run_cli(["cluster", data, "--method", "alg4", "--r", 5.0,
                      "--k", 0, "--d", 1, "--out", out])
        assert rc == 2
        assert capsys.readouterr().err == "error: k must be >= 1\n"
        assert not out.exists()

    def test_usage_error_exit_2(self, tmp_path, capsys):
        data = tmp_path / "seg.csv"
        segment_csv(data, n=40)
        rc = run_cli(["cluster", data, "--method", "alg3", "--r", 0.1,
                      "--out", tmp_path / "x.csv"])  # missing eps/eta
        assert rc == 2


@pytest.mark.parametrize("args", [
    ["--method", "alg2", "--r", 0.1, "--eps", "nan", "--eta", 0.22],
    ["--method", "alg3", "--r", 0.1, "--eps", "nan", "--eta", 0.22],
    ["--method", "alg4", "--r", 0.1, "--k", 2, "--d", 1, "--eps", "nan"],
    ["--method", "alg4", "--r", 0.1, "--k", 2, "--d", 1, "--eps", -0.2, "--affinity", "cov"],
    ["--method", "alg4", "--r", 0.1, "--k", 2, "--d", 1, "--alpha", "nan", "--affinity", "wang"],
    ["--method", "alg4", "--r", "inf", "--k", 2, "--d", 1],
    ["generate", "--dataset", "two_segments", "--n", 400, "--tau", "nan"],
])
def test_malformed_scale_exit_2(tmp_path, capsys, args):
    # a NaN fails every comparison, so a scale test of the form "< 0"
    # lets it through to the algorithm
    data = tmp_path / "seg.csv"
    segment_csv(data, n=200)
    out = tmp_path / "x.csv"
    argv = ([*args, "--out", out] if args[0] == "generate"
            else ["cluster", data, *args, "--out", out])
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


class TestAffinityVariants:
    def test_affinity_choices_are_the_pair_builders(self, tmp_path, capsys):
        for kind in PAIR_BUILDERS:
            args = cli.build_parser().parse_args(["cluster", "in.csv", "--affinity", kind,
                                                  "--out", "out.csv"])
            assert args.affinity == kind
        with pytest.raises(SystemExit) as exc:
            run_cli(["cluster", tmp_path / "in.csv", "--method", "alg4", "--r", 0.1, "--k", 2,
                     "--d", 1, "--affinity", "bogus", "--out", tmp_path / "out.csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["wang", "gong"])
    def test_alg4_with_alternative_affinity(self, tmp_path, kind):
        data = tmp_path / "cross.csv"
        rc = run_cli(["generate", "--dataset", "two_segments", "--n", 800,
                      "--tau", 0.01, "--seed", 4, "--out", data])
        assert rc == 0
        out = tmp_path / f"labels_{kind}.csv"
        rc = run_cli(["cluster", data, "--method", "alg4", "--r", 0.08,
                      "--k", 2, "--d", 1, "--affinity", kind, "--ell", 8,
                      "--seed", 6, "--out", out])
        assert rc == 0
        report = json.loads((tmp_path / f"labels_{kind}.csv.report.json").read_text())
        assert report["k_found"] >= 1
        assert 0.0 <= report["misclustering"] <= 1.0

    def test_alg4_with_indicator_affinity(self, tmp_path):
        # generous explicit scales keep every center's degree positive
        data = tmp_path / "spheres.csv"
        rc = run_cli(["generate", "--dataset", "two_spheres", "--n", 900,
                      "--tau", 0.0, "--seed", 4, "--out", data])
        assert rc == 0
        out = tmp_path / "labels_proj.csv"
        rc = run_cli(["cluster", data, "--method", "alg4", "--r", 0.35,
                      "--k", 2, "--d", 2, "--affinity", "proj",
                      "--eps", 0.9, "--eta", 0.95, "--seed", 6, "--out", out])
        assert rc == 0

    def test_alg4_indicator_affinity_can_isolate(self, tmp_path):
        # tight indicator scales produce zero-degree centers, which take
        # the label of their nearest linked center
        data = tmp_path / "cross.csv"
        run_cli(["generate", "--dataset", "two_segments", "--n", 800,
                 "--tau", 0.01, "--seed", 4, "--out", data])
        rc = run_cli(["cluster", data, "--method", "alg4", "--r", 0.08,
                      "--k", 2, "--d", 1, "--affinity", "proj",
                      "--eta", 0.05, "--seed", 6,
                      "--out", tmp_path / "x.csv"])
        assert rc == 0
        report = json.loads((tmp_path / "x.csv.report.json").read_text())
        assert report["n_isolated"] >= 1
        assert sum(report["cluster_sizes"]) == 800

    def test_njw_baseline_runs(self, tmp_path):
        data = tmp_path / "cross.csv"
        run_cli(["generate", "--dataset", "two_segments", "--n", 600,
                 "--tau", 0.01, "--seed", 4, "--out", data])
        out = tmp_path / "labels.csv"
        rc = run_cli(["cluster", data, "--method", "njw_baseline", "--r", 0.08,
                      "--k", 2, "--seed", 6, "--out", out])
        assert rc == 0


class TestExperiment:
    def test_report_shape_and_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = run_cli(["experiment", "--dataset", "two_segments", "--n", 300,
                      "--tau", 0.01, "--method", "alg4", "--r", 0.1,
                      "--k", 2, "--d", 1, "--trials", 4, "--seed", 2,
                      "--out", out])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["config"]["trials"] == 4
        assert report["config"]["n_per_cluster"] == 150
        row = report["rows"][0]
        assert len(row["rates"]) == 4
        assert set(row["count_below"]) == {"5%", "10%", "15%"}
        for key, thr in (("5%", 0.05), ("10%", 0.10), ("15%", 0.15)):
            assert row["count_below"][key] == sum(r < thr for r in row["rates"])
        table = capsys.readouterr().out
        assert "median" in table and "<5%" in table

    def test_zero_clusters_exit_2(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = run_cli(["experiment", "--dataset", "two_segments", "--n", 100,
                      "--method", "alg4", "--r", 0.1, "--k", 0, "--d", 1,
                      "--trials", 2, "--out", out])
        assert rc == 2
        assert capsys.readouterr().err == "error: k must be >= 1\n"
        assert not out.exists()

    def test_n_per_cluster_recorded(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(["experiment", "--dataset", "two_segments", "--n", 400,
                        "--method", "alg4", "--r", 0.1, "--k", 2, "--d", 1,
                        "--trials", 1, "--out", out]) == 0
        assert json.loads(out.read_text())["config"]["n_per_cluster"] == 200

    def test_angle_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.json"
        rc = run_cli(["experiment", "--dataset", "two_curves_angle", "--n", 240,
                      "--angle", "pi/2,pi/4", "--method", "alg4", "--r", 0.1,
                      "--k", 2, "--d", 1, "--trials", 2, "--seed", 0,
                      "--out", out])
        assert rc == 0
        report = json.loads(out.read_text())
        assert len(report["rows"]) == 2

    def test_threads_flag_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        base = ["experiment", "--dataset", "two_segments", "--n", 300,
                "--tau", 0.01, "--method", "alg4", "--r", 0.1, "--k", 2,
                "--d", 1, "--trials", 4, "--seed", 13]
        assert run_cli(base + ["--threads", 1, "--out", a]) == 0
        assert run_cli(base + ["--threads", 4, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threads_byte_identical_with_sparse_eigensolver(self, tmp_path, monkeypatch):
        # about 380 centers in one component: alg4 solves with eigsh
        sizes = []
        eigsh = cluster.eigsh
        monkeypatch.setattr(cluster, "eigsh",
                            lambda op, **kw: sizes.append(op.shape[0]) or eigsh(op, **kw))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        base = ["experiment", "--dataset", "two_segments", "--n", 4000,
                "--tau", 0.01, "--method", "alg4", "--r", 0.012, "--k", 2,
                "--d", 1, "--trials", 4, "--seed", 13]
        assert run_cli(base + ["--threads", 1, "--out", a]) == 0
        solved = len(sizes)
        assert run_cli(base + ["--threads", 2, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert solved > 0 and len(sizes) == 2 * solved and min(sizes) >= 256

    def test_env_threads_fallback(self, tmp_path, monkeypatch):
        out = tmp_path / "env.json"
        monkeypatch.setenv("MMCLUSTER_THREADS", "3")
        rc = run_cli(["experiment", "--dataset", "two_segments", "--n", 200,
                      "--method", "alg4", "--r", 0.1, "--k", 2, "--d", 1,
                      "--trials", 2, "--seed", 0, "--out", out])
        assert rc == 0

    def test_bad_env_threads_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MMCLUSTER_THREADS", "lots")
        rc = run_cli(["experiment", "--dataset", "two_segments", "--n", 200,
                      "--method", "alg4", "--r", 0.1, "--k", 2, "--d", 1,
                      "--trials", 1, "--seed", 0, "--out", tmp_path / "x.json"])
        assert rc == 2


class TestFloatFormat:
    def test_17_digits_round_trip(self):
        rng = np.random.default_rng(0)
        for v in rng.normal(size=200) * 10.0 ** rng.integers(-8, 8, size=200):
            assert float(cli.format_float(v)) == v
