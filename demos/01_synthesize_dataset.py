"""
Synthesizing a filtered labeled dataset
=======================================

Generate candidates from the procedural toy source, apply the default
filter stack (latent truncation, confidence rejection, ensemble-uncertainty
filtering) and write the surviving samples to disk. Then write the same
spec as an online stream, which applies confidence rejection only.
"""
import tempfile
from pathlib import Path

from labelgen.formats import read_mask
from labelgen.pipeline import PipelineSpec, synth_offline, write_stream
from labelgen.sampling import FilterConfig

out_dir = Path(tempfile.mkdtemp(prefix="labelgen-demo-"))

# defaults: truncation 0.9, rejection 0.9, uncertainty fraction 0.10
# the spec says what to sample; synth_offline takes how many and where
spec = PipelineSpec(filters=FilterConfig(), seed=0)
manifest = synth_offline(spec, 50, out_dir)

print(f"wrote {len(manifest)} samples to {out_dir}")
print(f"candidate pool: {manifest.metadata['pool']}")
print(f"filters: rejection={manifest.metadata['rejection_rate']}, "
      f"uncertainty_fraction={manifest.metadata['uncertainty_fraction']}")

# every surviving sample carries its classifier confidence and ensemble
# uncertainty; the pool was sized so exactly n samples survive
first = manifest.entries[0]
print(f"\nfirst survivor: {first.id} class={first.class_id} "
      f"confidence={first.confidence:.3f} uncertainty={first.uncertainty:.5f}")

mask = read_mask(out_dir / first.mask_path)
print(f"mask {mask.width}x{mask.height}, foreground px: {int(mask.foreground().sum())}")

# reruns with the same seed are byte-identical
rerun_dir = Path(tempfile.mkdtemp(prefix="labelgen-demo-rerun-"))
synth_offline(spec, 50, rerun_dir)
same = (out_dir / "manifest.txt").read_bytes() == (rerun_dir / "manifest.txt").read_bytes()
print(f"\nrerun byte-identical: {same}")

# the same spec as a never-repeating stream: no ensemble-uncertainty stage
# runs, so its manifest records uncertainty_fraction 0.0
stream_dir = Path(tempfile.mkdtemp(prefix="labelgen-demo-stream-"))
streamed = write_stream(spec, 20, stream_dir)
print(f"\nstreamed {len(streamed)} of {streamed.metadata['candidates']} candidates, "
      f"uncertainty_fraction={streamed.metadata['uncertainty_fraction']}")
