"""Fitting a kernel to an impulse far in the past (desk-scale).

A single exp-variant kernel is trained with analytic gradients and Adam so
that its peak lands on a distant target position.  A kernel that can do
this is, by the convolution view, a layer that can copy information across
that many timesteps.  This demo runs a reduced configuration; the full
long-range run (lag 1000 in a length-1024 kernel) is part of the
acceptance suite and takes well under a second.
"""

import numpy as np

from diagssm import train_toy_delay

report = train_toy_delay(n=24, l=256, lag=200, steps=3000, seed=0)

print("target: unit impulse at position %d of %d" % (report["lag"], report["l"]))
print("initial mse: %.5g" % report["initial_mse"])
print("final   mse: %.5g  (%.2f%% of initial)" % (
    report["final_mse"], 100.0 * report["final_mse"] / report["initial_mse"]))
print("kernel peak ends at position:", report["final_argmax"])

print("\nloss history (every 500 steps):")
for item in report["history"][::5]:
    print("  step %5d   mse %.6f" % (item["step"], item["mse"]))
