#!/usr/bin/env python3
"""Decay-rate convergence study for the absorbing heat equation.

Applies the one-period map matrix-free on refinements in space and time
and tabulates the spectral radius r against the analytic value
e^{-pi^2 T}, plus the implied rate mu against pi^2.  Writes a CSV usable with
docs/plot_density.gp-style gnuplot one-liners.
"""

import argparse
import math
import sys

import numpy as np

from perifp.coeff_dsl import CoefficientField
from perifp.fpe_grid import FpCoefficients, Grid1D, absorbing
from perifp.period_map import PeriodOperator, power_iteration


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--period", type=float, default=0.1)
    ap.add_argument("--out", default="heat_decay_rates.csv")
    args = ap.parse_args(argv)

    T = args.period
    coeffs = FpCoefficients(a_eff=CoefficientField.from_string("1", T),
                            b=CoefficientField.from_string("0", T))
    exact_r = math.exp(-math.pi**2 * T)

    rows = []
    for n in (50, 100, 200, 400):
        for steps in (256, 512, 1024):
            op = PeriodOperator(Grid1D(n, 0.0, 1.0), coeffs, absorbing(), T, T / steps)
            spec = power_iteration(op)
            rows.append((n, steps, spec.r, abs(spec.r - exact_r) / exact_r,
                         spec.mu, abs(spec.mu - math.pi**2) / math.pi**2))
            print(f"n={n:4d} steps={steps:4d}  r={spec.r:.8f}  "
                  f"rel_err={rows[-1][3]:.2e}  mu={spec.mu:.6f}")

    np.savetxt(args.out, np.array(rows), delimiter=",",
               header="n,steps,r,r_rel_err,mu,mu_rel_err", comments="")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
