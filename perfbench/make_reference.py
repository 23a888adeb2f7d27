"""Write perfbench/reference.json, the expected outputs the benchmark checks.

Usage (from the repository root): python3 perfbench/make_reference.py

It refuses to write anything unless the program is right at the weights the
benchmark uses: K * K^-1 must be the identity (Kostka matrix by tableau
counting) at every matrix weight, and ``verify --max-weight 10`` must pass,
as must ``verify`` at every weight the benchmark runs (exit code 0).  Then
it records the sha256 of the stdout of every command line the CLI
workloads run, in every format, and the golden h table.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, "src")

from invkostka import inverse_kostka_matrix, kostka_matrix, verify_suite  # noqa: E402

from inputs import FORMATS, MATRIX_WEIGHTS, VERIFY_WEIGHT  # noqa: E402

# the h_b coefficient table of the package's acceptance criterion 1
GOLDEN_H = {
    25: [0, 0, 36, 0, 0, -252, 0, 0, 165, 0, 0, -12],
    26: [0, -9, 0, 0, 210, 0, 0, -330, 0, 0, 66, 0, 0, -1],
    27: [1, 0, 0, -120, 0, 0, 462, 0, 0, -220, 0, 0, 13],
    28: [0, 0, 45, 0, 0, -462, 0, 0, 495, 0, 0, -78, 0, 0, 1],
    29: [0, -10, 0, 0, 330, 0, 0, -792, 0, 0, 286, 0, 0, -14],
    30: [1, 0, 0, -165, 0, 0, 924, 0, 0, -715, 0, 0, 91, 0, 0, -1],
}


def main() -> int:
    weights = sorted(w for ws in MATRIX_WEIGHTS.values() for w in ws)
    for m in weights:
        if not kostka_matrix(m).matmul(inverse_kostka_matrix(m)).is_identity():
            sys.exit(f"K * K^-1 != I at weight {m}")
        print(f"K * K^-1 = I at weight {m}", flush=True)
    if not verify_suite(10).ok:
        sys.exit("verify --max-weight 10 fails")

    env = dict(os.environ, PYTHONPATH="src")
    argvs = [["matrix", "--weight", str(m), "--inverse"] for m in weights]
    argvs += [["verify", "--max-weight", str(w)] for w in sorted(VERIFY_WEIGHT.values())]
    digests = {}
    for argv in argvs:
        for fmt in FORMATS:
            line = [*argv, "--format", fmt]
            proc = subprocess.run([sys.executable, "-m", "invkostka", *line],
                                  capture_output=True, env=env, check=True)
            if proc.stderr:
                sys.exit(f"stderr from {line}: {proc.stderr!r}")
            digests[" ".join(line)] = hashlib.sha256(proc.stdout).hexdigest()

    ref = {"stdout_sha256": digests, "golden_h": GOLDEN_H}
    out = Path(__file__).with_name("reference.json")
    out.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
