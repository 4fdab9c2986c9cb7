"""Command-line entry point.

Subcommands: synth, stream, analyze, geometry, meanshapes, scatter,
distmetrics, plan, bench. The LABELGEN_SEED environment variable overrides
the default seed 0; an explicit --seed flag wins over both.

Exit codes: 0 success; 1 when the command line does not parse (an unknown
flag, a missing required flag, a non-integer --n); 2 when a parsed value or
an input file is rejected (--n 0, --res 100, a --truncation below 0.01,
a negative --count, a negative or NaN --epsilon, --k 0, a non-integer
LABELGEN_SEED, a negative --seed or LABELGEN_SEED, a malformed manifest).
Errors print one line to stderr, never a traceback. A reader that closes
standard output early (``| head``) gives exit 1 and prints nothing.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import pipeline
from .formats import (
    read_manifest,
    read_mask,
    read_embeddings,
    read_taxonomy,
    write_lines,
    write_polygons,
)
from .sampling import FilterConfig


def _load_masks(manifest_path):
    """The manifest at manifest_path and its (class_id, Mask) pairs, each mask
    read when its pair is reached, in manifest order."""
    manifest = read_manifest(manifest_path)
    base_dir = Path(manifest_path).parent
    return manifest, ((entry.class_id, read_mask(base_dir / entry.mask_path))
                      for entry in manifest.entries)


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def _resolve_seed(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("LABELGEN_SEED") or "0"
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"LABELGEN_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _filters_from(args) -> FilterConfig:
    base = FilterConfig.from_file(args.config) if getattr(args, "config", None) else FilterConfig()
    return base.override(
        truncation_psi=getattr(args, "truncation", None),
        rejection_rate=getattr(args, "rejection", None),
        uncertainty_fraction=getattr(args, "uncertainty", None),
    )


def _spec_from(args) -> pipeline.PipelineSpec:
    """The run spec of a ``synth`` or ``stream`` command line."""
    if args.source != "toy":
        raise ValueError(f"unknown source {args.source!r}; the only source is 'toy'")
    return pipeline.PipelineSpec(
        filters=_filters_from(args),
        seed=_resolve_seed(args),
        resolution=args.res,
        num_classes=args.classes,
        name=args.name,
    )


def _cmd_synth(args) -> int:
    manifest = pipeline.synth_offline(_spec_from(args), args.n, args.out)
    print(f"wrote {len(manifest)} samples to {args.out}")
    return 0


def _cmd_stream(args) -> int:
    manifest = pipeline.write_stream(_spec_from(args), args.count, args.out)
    print(f"streamed {len(manifest)} samples to {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    from . import geometry

    manifest, pairs = _load_masks(args.manifest)
    report = geometry.analyze_masks(manifest.name, pairs, min_pixels=args.min_pixels,
                                    epsilon=args.epsilon)
    print(report.format_table())
    print()
    for line in report.machine_lines():
        print(line)
    return 0


def _cmd_geometry(args) -> int:
    from . import geometry

    _, pairs = _load_masks(args.manifest)
    polys = geometry.class_polygons(pairs, min_pixels=args.min_pixels, epsilon=args.epsilon)
    write_polygons(polys, args.out)
    total = sum(len(v) for v in polys.values())
    print(f"wrote {total} polygons to {args.out}")
    return 0


def _cmd_meanshapes(args) -> int:
    from . import geometry

    _, pairs = _load_masks(args.manifest)
    shape_sets, skipped = geometry.class_mean_shapes(pairs, k=args.k, seed=_resolve_seed(args))
    lines = []
    for shapes in shape_sets:
        flat = shapes.shapes.reshape(len(shapes.shapes), -1)
        row_format = " ".join(["%.6f"] * flat.shape[1])
        for cluster, (values, size) in enumerate(zip(flat.tolist(),
                                                     shapes.cluster_sizes.tolist())):
            lines.append(f"{shapes.class_id}\t{cluster}\t{size}\t{row_format % tuple(values)}")
    write_lines(lines, args.out)
    if skipped:
        print(f"skipped classes with fewer than k={args.k} masks: {skipped}", file=sys.stderr)
    print(f"wrote {len(lines)} mean-shape rows to {args.out}")
    return 0


def _cmd_scatter(args) -> int:
    from . import geometry

    _, pairs = _load_masks(args.manifest)
    centers = geometry.center_scatter(mask for _, mask in pairs)
    write_lines([f"{cx:.6f}\t{cy:.6f}" for cx, cy in centers], args.out)
    print(f"wrote {len(centers)} centers to {args.out}")
    return 0


def _cmd_distmetrics(args) -> int:
    from . import distmetrics

    distmetrics.check_block_size(args.block_size)
    a = read_embeddings(args.a)
    b = read_embeddings(args.b)
    fid_value = distmetrics.fid(a, b)
    kid_value = distmetrics.kid(a, b, block_size=args.block_size)
    print(f"fid\t{fid_value:.6f}")
    print(f"kid\t{kid_value:.8f}")
    print(f"kid_x1000\t{kid_value * 1000:.6f}")
    return 0


def _cmd_plan(args) -> int:
    from . import fusion

    layers = fusion.read_layers(args.layers)
    report = fusion.compare(layers, d_reduce=args.d_reduce, final_res=args.final_res)
    print(report.format_table())
    return 0


def _cmd_bench(args) -> int:
    from . import benchmark

    pred_manifest = read_manifest(args.pred_manifest)
    gt_manifest = read_manifest(args.gt_manifest)
    taxonomy = read_taxonomy(args.taxonomy) if args.taxonomy else None
    task = benchmark.build_task(taxonomy, args.task, {e.class_id for e in gt_manifest.entries})
    pred_paths = {e.id: e.mask_path for e in pred_manifest.entries}
    pred_dir = Path(args.pred_manifest).parent
    gt_dir = Path(args.gt_manifest).parent
    pairs = ((read_mask(pred_dir / pred_paths[e.id]), read_mask(gt_dir / e.mask_path))
             for e in gt_manifest.entries if e.id in pred_paths)
    lines = benchmark.report_lines(benchmark.score(task, pairs), task, taxonomy)
    write_lines(lines, args.report)
    print(*lines, sep="\n")
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: $LABELGEN_SEED or 0)")


def _add_source_args(parser):
    parser.add_argument("--source", default="toy",
                        help="sample source; toy is the only one (default toy)")
    parser.add_argument("--res", type=int, default=64,
                        help="sample resolution, 64, 128 or 256 (default 64)")
    parser.add_argument("--classes", type=int, default=16,
                        help="number of classes, 4..254 (default 16)")
    parser.add_argument("--name", default="dataset", help="dataset name (default dataset)")
    parser.add_argument("--config", default=None, help="key=value filter config file")
    parser.add_argument("--truncation", type=float, default=None,
                        help="latent truncation, at least 0.01 (default 0.9)")
    parser.add_argument("--rejection", type=float, default=None,
                        help="confidence rejection rate (default 0.9)")
    _add_seed(parser)


def _add_manifest(parser):
    parser.add_argument("--manifest", required=True, help="dataset manifest to read")


def _add_polygon_args(parser):
    _add_manifest(parser)
    parser.add_argument("--min-pixels", type=int, default=100,
                        help="smallest component used for polygon metrics (default 100)")
    parser.add_argument("--epsilon", type=float, default=0.01,
                        help="polygon simplification tolerance (default 0.01)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="labelgen", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth",
                       help="synthesize an offline labeled dataset")
    _add_source_args(p)
    p.add_argument("--n", type=int, required=True, help="samples to keep")
    p.add_argument("--uncertainty", type=float, default=None,
                   help="ensemble uncertainty drop fraction (default 0.10)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("stream",
                       help="materialize samples from the online stream")
    _add_source_args(p)
    p.add_argument("--count", type=int, required=True, help="samples to pull")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=_cmd_stream)

    p = sub.add_parser("analyze",
                       help="dataset statistics and shape metrics")
    _add_polygon_args(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("geometry",
                       help="extract simplified normalized polygons")
    _add_polygon_args(p)
    p.add_argument("--out", required=True, help="output polygon file")
    p.set_defaults(handler=_cmd_geometry)

    p = sub.add_parser("meanshapes",
                       help="k-means mean shapes per class")
    _add_manifest(p)
    p.add_argument("--out", required=True, help="output mean-shape file")
    p.add_argument("--k", type=int, default=5, help="clusters per class (default 5)")
    _add_seed(p)
    p.set_defaults(handler=_cmd_meanshapes)

    p = sub.add_parser("scatter",
                       help="normalized bbox-center scatter data")
    _add_manifest(p)
    p.add_argument("--out", required=True, help="output scatter file")
    p.set_defaults(handler=_cmd_scatter)

    p = sub.add_parser("distmetrics",
                       help="FID/KID between two embedding files")
    p.add_argument("--a", required=True, help="first EMB1 file")
    p.add_argument("--b", required=True, help="second EMB1 file")
    p.add_argument("--block-size", type=int, default=None,
                   help="average the KID estimator over blocks of this size")
    p.set_defaults(handler=_cmd_distmetrics)

    p = sub.add_parser("plan",
                       help="grouped-fusion memory plan vs resize-all baseline")
    p.add_argument("--layers", required=True, help="name<TAB>res<TAB>channels file")
    p.add_argument("--d-reduce", type=int, default=128,
                   help="1x1 reduction width (default 128)")
    p.add_argument("--final-res", type=int, default=512,
                   help="output resolution the baseline resizes every layer to, "
                        "a power of two in 8..512 (default 512)")
    p.set_defaults(handler=_cmd_plan)

    p = sub.add_parser("bench",
                       help="mIoU benchmark over prediction/ground-truth manifests")
    p.add_argument("--task", required=True, help="task name, e.g. FG/BG")
    p.add_argument("--pred-manifest", required=True,
                   help="manifest of predicted masks, holding task labels")
    p.add_argument("--gt-manifest", required=True,
                   help="manifest of ground-truth masks, holding class ids")
    p.add_argument("--report", required=True, help="output report file")
    p.add_argument("--taxonomy", default=None, help="taxonomy file with group tables")
    p.set_defaults(handler=_cmd_bench)
    return parser


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # parse_args keeps no state in the parser, so one serves every call
        _parser = build_parser()
    parser = _parser
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); as Python's signal docs
        # advise, point stdout at devnull so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:  # FormatError is a ValueError
        print(f"labelgen: data error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
