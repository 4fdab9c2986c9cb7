"""Static shape and memory model of grouped feature fusion.

Generator feature maps are grouped by spatial resolution into high
(8x8..32x32), mid (64x64..128x128) and low (256x256..512x512) bands. Within
a band, members are resized to the band's working resolution, concatenated,
and reduced with a 1x1 conv; the running feature is then upsampled to the
next band, concatenated with that band's reduced output, and fused by a
shape-preserving mix block (two 3x3 convs with a residual). A final 1x1
conv emits the output channels.

The memory model counts activation elements only, with stage-local
liveness: a stage's cost is the sum of its input and output tensors. The
baseline it is compared against resizes every feature map to the final
resolution before concatenating, which is what grouping avoids.
"""
from __future__ import annotations

from dataclasses import dataclass

from .formats import FormatError, file_error, read_lines, write_lines

GROUP_BANDS = (("high", 8, 32), ("mid", 64, 128), ("low", 256, 512))

DEFAULT_D_REDUCE = 128
DEFAULT_FINAL_RES = 512
OUT_CHANNELS = 2


def _check_resolution(res: int) -> None:
    if res < 8 or res > 512 or res & (res - 1):
        raise ValueError(f"resolution {res} must be a power of two in [8, 512]")


@dataclass(frozen=True)
class LayerSpec:
    """One feature map: square resolution (power of two in 8..512) and width."""

    name: str
    resolution: int
    channels: int

    def __post_init__(self):
        _check_resolution(self.resolution)
        if self.channels < 1:
            raise ValueError("channels must be >= 1")


@dataclass(frozen=True)
class PlanStage:
    """One operation with the tensors it holds live and its MAC count."""

    name: str
    inputs: tuple[tuple[int, int], ...]   # (channels, resolution)
    outputs: tuple[tuple[int, int], ...]
    macs: int = 0

    @property
    def live_elements(self) -> int:
        return sum(c * r * r for c, r in self.inputs + self.outputs)


@dataclass(frozen=True)
class FusionPlan:
    groups: tuple[tuple[str, tuple[LayerSpec, ...], int], ...]  # (band, members, work res)
    stages: tuple[PlanStage, ...]
    output_shape: tuple[int, int]
    peak_elements: int
    total_macs: int

    def format_table(self) -> str:
        lines = [f"{'stage':28s} {'live elements':>14s} {'MACs':>16s}"]
        for stage in self.stages:
            lines.append(f"{stage.name:28s} {stage.live_elements:14d} {stage.macs:16d}")
        lines.append(f"{'peak':28s} {self.peak_elements:14d} {self.total_macs:16d}")
        return "\n".join(lines)


def _band_of(resolution: int) -> tuple[str, int]:
    for name, lo, hi in GROUP_BANDS:
        if lo <= resolution <= hi:
            return name, hi
    raise ValueError(f"resolution {resolution} outside all groups")


def plan_grouped(layers, d_reduce: int = DEFAULT_D_REDUCE,
                 final_res: int = DEFAULT_FINAL_RES) -> FusionPlan:
    """Build the grouped fusion plan and its stage-by-stage memory profile.

    Each occupied band works at min(band top resolution, final_res). The 1x1
    reduction is skipped when a band's concatenated width is already at or
    below d_reduce. Stage resolutions never decrease along the plan.
    """
    layers = list(layers)
    if not layers:
        raise ValueError("need at least one layer")
    if d_reduce < 1:
        raise ValueError("d_reduce must be >= 1")
    _check_resolution(final_res)
    grouped: dict[str, list[LayerSpec]] = {}
    for layer in layers:
        if layer.resolution > final_res:
            raise ValueError(
                f"layer {layer.name!r} at {layer.resolution} exceeds final resolution {final_res}"
            )
        band, _ = _band_of(layer.resolution)
        grouped.setdefault(band, []).append(layer)

    stages: list[PlanStage] = []
    groups_out = []
    current: tuple[int, int] | None = None  # (channels, resolution) of the running feature
    for band, _, top in GROUP_BANDS:
        members = grouped.get(band)
        if not members:
            continue
        work_res = min(top, final_res)
        groups_out.append((band, tuple(members), work_res))

        resized = [(m.channels, work_res) for m in members if m.resolution != work_res]
        if resized:
            stages.append(
                PlanStage(
                    name=f"{band}:resize",
                    inputs=tuple((m.channels, m.resolution) for m in members),
                    outputs=tuple(resized),
                )
            )
        concat_channels = sum(m.channels for m in members)
        band_channels = min(concat_channels, d_reduce)
        if band_channels < concat_channels:
            stages.append(
                PlanStage(
                    name=f"{band}:reduce1x1",
                    inputs=((concat_channels, work_res),),
                    outputs=((band_channels, work_res),),
                    macs=concat_channels * band_channels * work_res * work_res,
                )
            )
        if current is None:
            current = (band_channels, work_res)
            continue
        prev_channels, prev_res = current
        stages.append(
            PlanStage(
                name=f"{band}:upsample",
                inputs=((prev_channels, prev_res),),
                outputs=((prev_channels, work_res),),
            )
        )
        fused = prev_channels + band_channels
        stages.append(
            PlanStage(
                name=f"{band}:mix3x3",
                inputs=((fused, work_res),),
                outputs=((fused, work_res),),
                macs=2 * 9 * fused * fused * work_res * work_res,
            )
        )
        current = (fused, work_res)

    if current is None:
        raise ValueError("no layer fell into any group")
    stages.append(
        PlanStage(
            name="head:logits1x1",
            inputs=(current,),
            outputs=((OUT_CHANNELS, current[1]),),
            macs=current[0] * OUT_CHANNELS * current[1] ** 2,
        )
    )
    return FusionPlan(
        groups=tuple(groups_out),
        stages=tuple(stages),
        output_shape=(OUT_CHANNELS, current[1]),
        peak_elements=max(s.live_elements for s in stages),
        total_macs=sum(s.macs for s in stages),
    )


def plan_baseline(layers, final_res: int = DEFAULT_FINAL_RES) -> int:
    """Elements held when every feature is resized to final_res and concatenated."""
    layers = list(layers)
    if not layers:
        raise ValueError("need at least one layer")
    _check_resolution(final_res)
    return sum(layer.channels for layer in layers) * final_res * final_res


@dataclass(frozen=True)
class CompareReport:
    baseline_elements: int
    grouped_peak_elements: int
    ratio: float
    plan: FusionPlan

    def format_table(self) -> str:
        lines = [
            f"{'baseline elements':24s} {self.baseline_elements:16d}",
            f"{'grouped peak elements':24s} {self.grouped_peak_elements:16d}",
            f"{'ratio':24s} {self.ratio:16.4f}",
            "",
            self.plan.format_table(),
        ]
        return "\n".join(lines)


def compare(layers, d_reduce: int = DEFAULT_D_REDUCE,
            final_res: int = DEFAULT_FINAL_RES) -> CompareReport:
    """Baseline versus grouped peak memory for one layer configuration."""
    plan = plan_grouped(layers, d_reduce, final_res)
    baseline = plan_baseline(layers, final_res)
    return CompareReport(
        baseline_elements=baseline,
        grouped_peak_elements=plan.peak_elements,
        ratio=baseline / plan.peak_elements,
        plan=plan,
    )


def read_layers(path) -> list[LayerSpec]:
    """Parse 'name<TAB>resolution<TAB>channels' lines; a file with none is rejected."""
    layers = []
    for lineno, line in enumerate(read_lines(path), 1):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise FormatError(f"{path}:{lineno}: expected name<TAB>resolution<TAB>channels")
        try:
            layers.append(LayerSpec(fields[0], int(fields[1]), int(fields[2])))
        except ValueError as exc:
            raise file_error(exc, path, lineno) from None
    if not layers:
        raise FormatError(f"{path}: no layers")
    return layers


def write_layers(layers, path) -> None:
    write_lines((f"{l.name}\t{l.resolution}\t{l.channels}" for l in layers), path)
