import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmcluster import cli
from mmcluster.affinity import auto_epsilon, auto_eta
from mmcluster.local_pca import batch_local_models
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
        index = build_index(cloud)
        centers = subsample_centers(index, r, rng)
        models = batch_local_models(cloud, index, centers, r, d=1)
        eps = auto_epsilon(cloud.coords[centers])
        eta = auto_eta(models, eps)
        assert report["eps_used"] == eps
        assert report["eta_used"] == eta

    def test_algorithm_failure_exit_1(self, tmp_path, capsys):
        data = tmp_path / "seg.csv"
        segment_csv(data, n=40)
        rc = run_cli(["cluster", data, "--method", "alg4", "--r", 5.0,
                      "--k", 3, "--d", 1, "--out", tmp_path / "x.csv"])
        assert rc == 1
        assert "TooFewCenters" in capsys.readouterr().err

    def test_usage_error_exit_2(self, tmp_path, capsys):
        data = tmp_path / "seg.csv"
        segment_csv(data, n=40)
        rc = run_cli(["cluster", data, "--method", "alg3", "--r", 0.1,
                      "--out", tmp_path / "x.csv"])  # missing eps/eta
        assert rc == 2


class TestAffinityVariants:
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

    def test_alg4_indicator_affinity_can_isolate(self, tmp_path, capsys):
        # tight indicator scales produce a zero-degree center, which the
        # spectral step rejects: algorithm failure, exit status 1
        data = tmp_path / "cross.csv"
        run_cli(["generate", "--dataset", "two_segments", "--n", 800,
                 "--tau", 0.01, "--seed", 4, "--out", data])
        rc = run_cli(["cluster", data, "--method", "alg4", "--r", 0.08,
                      "--k", 2, "--d", 1, "--affinity", "proj",
                      "--eta", 0.05, "--seed", 6,
                      "--out", tmp_path / "x.csv"])
        assert rc == 1
        assert "IsolatedNode" in capsys.readouterr().err

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
        row = report["rows"][0]
        assert len(row["rates"]) == 4
        assert set(row["count_below"]) == {"5%", "10%", "15%"}
        for key, thr in (("5%", 0.05), ("10%", 0.10), ("15%", 0.15)):
            assert row["count_below"][key] == sum(r < thr for r in row["rates"])
        table = capsys.readouterr().out
        assert "median" in table and "<5%" in table

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
