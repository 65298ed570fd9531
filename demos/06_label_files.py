"""Labels are bit strings; files are bit streams.  Nothing else travels.

A label embeds everything its decoder needs (node count, thresholds, table
sizes), so shipping the label file is enough to answer distance queries --
the graph can be thrown away.  This demo saves labels, reloads them, peeks
at the raw bits of a tiny label, and shows the gamma code doing the
self-delimiting work.
"""

import tempfile
from pathlib import Path

import distlab as dl
from distlab.bits import Bits, SetReader, gamma_bits
from distlab.labels import load_labels, save_labels

# gamma code: floor(log2 x) zeros, then x in binary; decodable mid-stream
codes, lengths = gamma_bits([1, 4, 5, 23])
bits = Bits.from_array(codes)
print(f"gamma(1 4 5 23) -> {bits.to01()}  ({bits.nbits} bits, codes of {lengths.tolist()})")
reader = SetReader([bits])  # reads one field of many bit strings at once; here, of one
print("decoded back:", [int(reader.gamma()[0]) for _ in range(4)])

# a whole scheme through a file
g = dl.gen_cycle(12)
labels = dl.encode_medium(g, dl.PreservingParams(D=3, seed=1))
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "cycle.dlab"
    save_labels(labels, path)
    raw = path.read_bytes()
    print(f"\nlabel file: {len(raw)} bytes, magic {raw[:5]!r}")
    loaded = load_labels(path)

print(f"scheme={loaded.scheme} params={loaded.params}")
print(f"one label, raw: {loaded.labels[0].to01()}")
oracle = dl.all_pairs(g)
print("decode(0, 6) from the reloaded file:", loaded.decode(0, 6),
      " (true", int(oracle[0, 6]), ")")
print("round trip byte-exact:", loaded.labels == labels.labels)
