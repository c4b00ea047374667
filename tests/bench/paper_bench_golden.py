#!/usr/bin/env python3
"""The paper's outputs, byte for byte.

Runs the 13 paper and ablation benches and compares each one's stdout
with its golden file, tests/bench/paper_golden/<bench>.txt. Two benches
are left out on purpose: bench_table2 prints the repository's line
counts and bench_simcore reports wall-clock time. The benches run with
no RCHDROID_* variable set and their default job count; their output
does not depend on the number of jobs.

  python3 tests/bench/paper_bench_golden.py BUILD/bench tests/bench/paper_golden

To regenerate the goldens after a change that is meant to move the
paper's numbers (say why in the change), run from the repository root
with no RCHDROID_* variable set:

  for b in bench_fig7 bench_fig8 bench_fig9 bench_fig10 bench_fig11 \\
           bench_fig12 bench_fig14 bench_table3 bench_table5 bench_energy \\
           bench_ablation_coinflip bench_ablation_mapping bench_sensitivity; do
    build/bench/$b > tests/bench/paper_golden/$b.txt
  done
"""

import difflib
import os
import subprocess
import sys
import unittest

BENCHES = [
    "bench_fig7", "bench_fig8", "bench_fig9", "bench_fig10", "bench_fig11",
    "bench_fig12", "bench_fig14", "bench_table3", "bench_table5",
    "bench_energy", "bench_ablation_coinflip", "bench_ablation_mapping",
    "bench_sensitivity",
]

BENCH_DIR = None
GOLDEN_DIR = None


class PaperBenchGolden(unittest.TestCase):
    def test_stdout_matches_golden(self):
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("RCHDROID_")}
        for bench in BENCHES:
            with self.subTest(bench=bench):
                proc = subprocess.run([os.path.join(BENCH_DIR, bench)],
                                      capture_output=True, env=env,
                                      timeout=600)
                self.assertEqual(proc.returncode, 0,
                                 proc.stderr.decode(errors="replace"))
                with open(os.path.join(GOLDEN_DIR, bench + ".txt"),
                          "rb") as handle:
                    golden = handle.read()
                if proc.stdout != golden:
                    diff = difflib.unified_diff(
                        golden.decode(errors="replace").splitlines(),
                        proc.stdout.decode(errors="replace").splitlines(),
                        "golden", bench, lineterm="")
                    self.fail("\n".join(list(diff)[:60]))


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    BENCH_DIR, GOLDEN_DIR = sys.argv[1:3]
    unittest.main(argv=[sys.argv[0]] + sys.argv[3:])
