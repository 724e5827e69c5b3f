"""Command-line interface: dataset generation, clustering runs, experiments.

File formats fixed here:

* Point clouds: UTF-8 CSV with '#'-prefixed metadata comment lines
  (seed, generator spec) above a ``x0,...,x{D-1}[,label]`` header row;
  floats use 17 significant digits so files round-trip exactly.
* Labels: CSV with a single ``label`` column aligned with the input rows.
* Reports: JSON with sorted keys.  Experiment reports contain no
  wall-clock fields, so identical seeds give byte-identical files
  regardless of --threads.

Exit status: 0 success, 1 algorithm failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from .affinity import NORMS, PAIR_BUILDERS
from .datasets import DATASET_NAMES, DatasetSpec, generate, geometry
from .errors import InvalidInput, MMClusterError
from .evaluation import (
    RATE_THRESHOLDS,
    MethodConfig,
    TrialStats,
    misclustering_rate,
    run_method,
    run_trials,
)
from .neighborhoods import PointCloud

USAGE_ERROR = 2
ALGO_ERROR = 1


# ---------------------------------------------------------------------------
# point-cloud CSV format

def format_float(v: float) -> str:
    return format(float(v), ".17g")


def write_cloud_csv(cloud: PointCloud, path: str, spec: DatasetSpec | None = None) -> None:
    lines = ["# mmcluster point cloud"]
    if cloud.seed is not None:
        lines.append(f"# seed: {cloud.seed}")
    if cloud.intrinsic_dim is not None:
        lines.append(f"# intrinsic_dim: {cloud.intrinsic_dim}")
    if cloud.n_clusters is not None:
        lines.append(f"# n_clusters: {cloud.n_clusters}")
    if spec is not None:
        lines.append("# spec: " + json.dumps(asdict(spec), sort_keys=True))
    header = [f"x{i}" for i in range(cloud.dim)]
    if cloud.labels is not None:
        header.append("label")
    lines.append(",".join(header))
    for i in range(cloud.n):
        row = [format_float(v) for v in cloud.coords[i]]
        if cloud.labels is not None:
            row.append(str(int(cloud.labels[i])))
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_cloud_csv(path: str) -> PointCloud:
    """Parse a point-cloud CSV; a malformed row raises InvalidInput naming path:line."""
    meta: dict[str, str] = {}
    header: list[str] | None = None
    coords: list[list[float]] = []
    labels: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, val = body.split(":", 1)
                    meta[key.strip()] = val.strip()
                continue
            cells = line.split(",")
            if header is None:
                header = cells
                continue
            if len(cells) != len(header):
                raise InvalidInput(f"{path}:{lineno}: expected {len(header)} cells, "
                                   f"got {len(cells)}")
            try:
                if header[-1] == "label":
                    coords.append([float(c) for c in cells[:-1]])
                    labels.append(int(cells[-1]))
                else:
                    coords.append([float(c) for c in cells])
            except ValueError as exc:
                raise InvalidInput(f"{path}:{lineno}: {exc}") from exc
    if header is None or not coords:
        raise InvalidInput(f"no data rows in {path}")

    def _int_meta(key):
        try:
            return int(meta[key]) if key in meta else None
        except ValueError as exc:
            raise InvalidInput(f"{path}: metadata {key}: {exc}") from exc

    return PointCloud(
        coords=np.asarray(coords, dtype=float),
        labels=np.asarray(labels, dtype=int) if labels else None,
        seed=_int_meta("seed"),
        intrinsic_dim=_int_meta("intrinsic_dim"),
        n_clusters=_int_meta("n_clusters"),
    )


def write_labels_csv(labels: np.ndarray, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("label\n")
        fh.write("\n".join(str(int(v)) for v in labels) + "\n")


def write_report(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# argument parsing

def _parse_one_angle(part: str) -> float:
    part = part.strip().lower()
    if part == "pi":
        return math.pi
    if part.startswith("pi/"):
        return math.pi / float(part[3:])
    return float(part)


def _parse_angles(text: str) -> list[float]:
    try:
        out = [_parse_one_angle(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad angle list {text!r}") from exc
    if not out:
        raise argparse.ArgumentTypeError("empty angle list")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmcluster",
        description="Multi-manifold clustering via local PCA and spectral partitioning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_flags(p):
        p.add_argument("--dataset", choices=DATASET_NAMES, required=True)
        p.add_argument("--n", type=int, default=1000,
                       help="total points, split evenly across clusters and "
                            "rounded down to a multiple of the cluster count")
        p.add_argument("--tau", type=float, default=0.0, help="noise bound")
        p.add_argument("--angle", type=_parse_angles, default=None,
                       help="intersection angle in radians; 'pi/4' works; "
                            "a comma list sweeps angles in `experiment`")
        p.add_argument("--proportional", action="store_true",
                       help="sample clusters proportionally to surface measure")

    def add_method_flags(p):
        p.add_argument("--method", choices=("alg2", "alg3", "alg4", "njw_baseline"),
                       default="alg4")
        p.add_argument("--r", type=float, help="local PCA radius")
        p.add_argument("--eps", type=float, default=None, help="spatial scale")
        p.add_argument("--eta", type=float, default=None, help="orientation scale")
        p.add_argument("--k", type=int, default=None, help="number of clusters")
        p.add_argument("--d", type=int, default=None, help="intrinsic dimension")
        p.add_argument("--affinity", choices=tuple(PAIR_BUILDERS), default="gauss")
        p.add_argument("--norm", choices=NORMS, default="spectral")
        p.add_argument("--ell", type=int, default=10,
                       help="neighbor count for wang/gong affinities")
        p.add_argument("--alpha", type=float, default=2.0,
                       help="cosine-product exponent for the wang affinity")

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True, help="output path")

    g = sub.add_parser("generate", help="write a synthetic point cloud as CSV")
    add_dataset_flags(g)
    add_common(g)

    c = sub.add_parser("cluster", help="cluster a point-cloud CSV")
    c.add_argument("input", help="point-cloud CSV path")
    add_method_flags(c)
    add_common(c)

    e = sub.add_parser("experiment", help="repeated-trial sweep with statistics")
    add_dataset_flags(e)
    add_method_flags(e)
    e.add_argument("--trials", type=int, default=100)
    e.add_argument("--threads", type=int, default=None,
                   help="trials run in parallel (default: MMCLUSTER_THREADS or 1)")
    add_common(e)

    return parser


def _resolve_threads(value) -> int:
    if value is not None:
        return max(1, int(value))
    env = os.environ.get("MMCLUSTER_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise InvalidInput(f"MMCLUSTER_THREADS={env!r} is not an integer") from exc
    return 1


def _dataset_spec(args, angle: float | None) -> DatasetSpec:
    k = geometry(DatasetSpec(args.dataset, 1)).n_clusters
    if args.n < k:
        raise InvalidInput(f"--n must be at least {k}, the cluster count of {args.dataset}")
    return DatasetSpec(
        name=args.dataset,
        n_per_cluster=args.n // k,
        tau=args.tau,
        angle=angle,
        seed=args.seed,
        proportional=args.proportional,
    )


def _method_config(args) -> MethodConfig:
    if args.r is None:
        raise InvalidInput("--r is required for clustering")
    return MethodConfig(
        method=args.method, r=args.r, k=args.k, d=args.d,
        eps=args.eps, eta=args.eta, affinity=args.affinity,
        norm=args.norm, ell=args.ell, alpha=args.alpha,
    )


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args) -> int:
    angle = args.angle[0] if args.angle else None
    spec = _dataset_spec(args, angle)
    cloud = generate(spec)
    write_cloud_csv(cloud, args.out, spec=spec)
    print(f"wrote {cloud.n} points (D={cloud.dim}, K={cloud.n_clusters}) to {args.out}")
    return 0


def cmd_cluster(args) -> int:
    cfg = _method_config(args)
    cloud = read_cloud_csv(args.input)

    start = time.perf_counter()
    labeling = run_method(cloud, cfg, args.seed)
    runtime_ms = 1000.0 * (time.perf_counter() - start)
    info = labeling.info

    write_labels_csv(labeling.assignments, args.out)
    report = {
        "method": cfg.method,
        "params": {
            "r": cfg.r, "eps": cfg.eps, "eta": cfg.eta, "k": cfg.k, "d": cfg.d,
            "affinity": cfg.affinity, "norm": cfg.norm, "seed": args.seed,
        },
        "eps_used": info["eps"],
        "eta_used": info["eta"],
        **{key: info.get(key) for key in ("n_centers", "n_edges", "n_components", "n_isolated",
                                          "eigenvalues", "eigengap", "kmeans_inertia")},
        "k_found": labeling.K_found,
        "cluster_sizes": info["cluster_sizes"],
        "n_removed": int(labeling.removed.size) if labeling.removed is not None else 0,
        "runtime_ms": runtime_ms,
    }
    if cloud.labels is not None:
        k_true = int(cloud.labels.max())
        report["misclustering"] = misclustering_rate(labeling, cloud.labels, k_true)
    report_path = args.out + ".report.json"
    write_report(report, report_path)
    shown = {k: v for k, v in report.items() if k not in ("cluster_sizes",)}
    print(json.dumps(shown, indent=2, sort_keys=True))
    print(f"labels -> {args.out}\nreport -> {report_path}")
    return 0


def _stats_row(label: str, r: float, stats: TrialStats) -> dict:
    return {
        "instance": label,
        "r": r,
        "r_over_R": stats.r_over_R,
        "median_rate": stats.median,
        "count_below": {f"{int(100 * t)}%": stats.count_below[t] for t in RATE_THRESHOLDS},
        "rates": stats.rates,
        "k_found": stats.k_found,
        "errors": stats.errors,
    }


def _print_table(rows: list[dict], n_trials: int) -> None:
    headers = ["instance", "r", "r/R", "median", "<5%", "<10%", "<15%"]
    table = []
    for row in rows:
        table.append([
            row["instance"],
            format(row["r"], ".4g"),
            format(row["r_over_R"], ".3f"),
            f"{100 * row['median_rate']:.2f}%",
            *(f"{row['count_below'][t]}/{n_trials}" for t in ("5%", "10%", "15%")),
        ])
    widths = [max(len(h), *(len(r[i]) for r in table)) for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for r in table:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def cmd_experiment(args) -> int:
    threads = _resolve_threads(args.threads)
    cfg = _method_config(args)
    if args.trials < 1:
        raise InvalidInput("--trials must be >= 1")
    angles = args.angle if args.angle else [None]
    rows = []
    for angle in angles:
        spec = _dataset_spec(args, angle)
        stats = run_trials(spec, cfg, args.trials, args.seed, threads=threads)
        label = args.dataset if angle is None else f"{args.dataset}@{format_float(angle)}"
        rows.append(_stats_row(label, cfg.r, stats))
    report = {
        "config": {
            "dataset": args.dataset,
            "n_per_cluster": spec.n_per_cluster,
            "tau": args.tau,
            "angles": angles if angles != [None] else None,
            "method": cfg.method,
            "params": {
                "r": cfg.r, "eps": cfg.eps, "eta": cfg.eta, "k": cfg.k, "d": cfg.d,
                "affinity": cfg.affinity, "norm": cfg.norm,
            },
            "trials": args.trials,
            "seed": args.seed,
        },
        "rows": rows,
    }
    write_report(report, args.out)
    _print_table(rows, args.trials)
    print(f"report -> {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "cluster":
            return cmd_cluster(args)
        return cmd_experiment(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FileNotFoundError as exc:
        print(f"error: cannot open {exc.filename}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MMClusterError as exc:
        print(f"algorithm failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return ALGO_ERROR


if __name__ == "__main__":
    sys.exit(main())
