"""Tests of the benchmark itself: python3 -m pytest bench"""

import run

run.load_program()
