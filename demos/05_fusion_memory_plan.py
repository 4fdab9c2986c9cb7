"""
Grouped feature-fusion memory planning
======================================

Why grouping generator features by resolution band beats resizing
everything to the output resolution: element counts for the documented
512-resolution example config.
"""
from pathlib import Path

from labelgen.fusion import compare, read_layers

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BIGGAN512_LAYERS = read_layers(CONFIGS / "biggan512.tsv")
VQGAN256_LAYERS = read_layers(CONFIGS / "vqgan256.tsv")

report = compare(BIGGAN512_LAYERS, d_reduce=128)

print("512-res convolutional example config")
print("------------------------------------")
for layer in BIGGAN512_LAYERS:
    print(f"  {layer.name:8s} {layer.channels:5d} ch @ {layer.resolution}x{layer.resolution}")
print()
print(report.format_table())
print()
print(f"grouping needs {report.ratio:.2f}x less activation memory than "
      "resize-everything")

# sweep the 1x1 reduction width: more channels, less savings
print("\nd_reduce sweep:")
for d_reduce in (32, 64, 128, 256):
    r = compare(BIGGAN512_LAYERS, d_reduce=d_reduce)
    print(f"  d_reduce={d_reduce:3d}: peak={r.grouped_peak_elements:12d} ratio={r.ratio:6.2f}")

# the 256-res autoregressive config plans the same way at its native output
vq = compare(VQGAN256_LAYERS, d_reduce=128, final_res=256)
print(f"\n256-res transformer+decoder config: baseline={vq.baseline_elements}, "
      f"peak={vq.grouped_peak_elements}, ratio={vq.ratio:.2f}")
