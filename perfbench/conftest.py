# Lets the benchmark's tests import entfrac from the source tree and the
# benchmark modules from this directory.
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]
