"""Make the benchmark's modules and the program under test importable."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARKS = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCHMARKS), "src"), BENCHMARKS]
