"""Print one sha256 over the certificates of the pinned class stream.

    PYTHONPATH=src python3 tests/certdigest.py

For each of the 13,598 classes on at most 8 vertices, in stream order, the
digest is fed `json.dumps(classify(g).to_json(with_timings=False),
sort_keys=True)` followed by a newline.  Two commits whose certificates are
byte-identical print the same digest.  The script takes about as long as one
classify pass (7-9 s on 2 CPUs) and is not collected by pytest;
`tests/test_classifier.py` pins the digest through `certificate_digest`.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import stream  # noqa: E402

from indsat.classifier import classify  # noqa: E402
from indsat.graphs import parse_graph6  # noqa: E402


def certificate_digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        cert = classify(parse_graph6(line)).to_json(with_timings=False)
        digest.update(json.dumps(cert, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


if __name__ == "__main__":
    lines, _ = stream.load()
    print(certificate_digest(lines))
