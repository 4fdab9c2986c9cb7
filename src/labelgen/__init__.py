"""Tooling for synthetic labeled datasets: filtering, geometry, metrics."""

import importlib

from .formats import (
    ClassTaxonomy,
    DatasetManifest,
    EmbeddingSet,
    Image,
    LabeledSample,
    ManifestEntry,
    Mask,
    read_embeddings,
    read_image,
    read_manifest,
    read_mask,
    read_taxonomy,
    write_embeddings,
    write_image,
    write_manifest,
    write_mask,
    write_taxonomy,
)
from .sampling import (
    CategoricalDist,
    EnsemblePrediction,
    FilterConfig,
    confidence_rejection,
    js_divergence,
    nucleus_topk_sample,
    nucleus_topk_support,
    sample_uncertainty,
    truncated_normal,
    uncertainty_filter,
)
from .toygen import ToyClassSpec, ToyOutput, toy_generate, toy_taxonomy
from .pipeline import OnlineStream, PipelineSpec, ToySource, synth_offline

# The analysis modules load scipy.ndimage and scipy.spatial, which synthesis
# never needs; their names are imported on first use (PEP 562).
_LAZY = {
    "geometry": ("MaskStats", "MeanShapeSet", "Polygon", "center_scatter", "chamfer",
                 "connected_components", "largest_component_polygon", "mask_stats",
                 "mean_shapes", "polygon_length", "shape_complexity", "shape_diversity",
                 "simplify_dp"),
    "distmetrics": ("GaussianFit", "apply_mask", "fid", "fit_gaussian", "kid"),
    "fusion": ("FusionPlan", "LayerSpec", "compare", "plan_baseline", "plan_grouped"),
    "benchmark": ("ConfusionMatrix", "TaskSpec", "accumulate", "build_task", "miou",
                  "rank_classes", "task_split_sizes"),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY_OWNER:
        value = getattr(importlib.import_module(f".{_LAZY_OWNER[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
