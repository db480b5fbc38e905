#!/usr/bin/env python3
"""Distributional periodicity of reflected diffusions on [0, 1].

Simulates reflected Brownian motion and a periodically forced reflected
Ornstein-Uhlenbeck process, prints the Cesaro periodicity defect of the
period-sampled laws, and compares the terminal empirical law against the
grid Fokker-Planck density in bounded-Lipschitz distance.
"""

import argparse
import sys

import numpy as np

from perifp.bl_metric import dbl
from perifp.coeff_dsl import CoefficientField
from perifp.fpe_grid import DensityField, FpCoefficients, Grid1D, reflecting, solve_ivp
from perifp.sde_reflect import (BoxDomain, SdeSystem, density_to_measure,
                                periodicity_diagnostic, sample_laws)


def run_case(name, drift_src, sigma, T, paths, periods, burn_in, seed, res):
    sys_ = SdeSystem(
        (CoefficientField.from_string(drift_src, T),),
        ((CoefficientField.from_string(sigma, T),),),
        T, BoxDomain([0.0], [1.0]))
    batch = sample_laws(sys_, [0.5], M=paths, n_periods=periods, dt=T / 256,
                        seed=seed, snap_resolution=res)
    defect, restricted, tail = periodicity_diagnostic(batch, burn_in)

    grid = Grid1D(200, 0.0, 1.0)
    a_eff = f"({sigma})^2 / 2"
    coeffs = FpCoefficients(a_eff=CoefficientField.from_string(a_eff, T),
                            b=CoefficientField.from_string(drift_src, T))
    p0 = DensityField(grid, np.ones(200))
    p, _ = solve_ivp(p0, coeffs, reflecting(), T, periods * T, T / 256)
    gap = dbl(batch.snapshots[-1], density_to_measure(p)).distance

    print(f"{name}:")
    print(f"  Cesaro defect            {defect:.5f}")
    print(f"  restricted variant       {restricted:.5f}")
    print(f"  tail pairwise d_BL       {tail:.5f}")
    print(f"  d_BL(MC law, grid law)   {gap:.5f}")
    print(f"  reflections per path     {batch.reflection_counts / paths:.1f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paths", type=int, default=10000)
    ap.add_argument("--periods", type=int, default=20)
    ap.add_argument("--burn-in", type=int, default=10)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args(argv)

    res = 1.0 / 256
    run_case("reflected Brownian motion", "0", "1", 1.0,
             args.paths, args.periods, args.burn_in, args.seed, res)
    run_case("forced reflected OU", "0 - (x - 0.5 - 0.25*sin(2*pi*t))", "0.5",
             1.0, args.paths, args.periods, args.burn_in, args.seed + 1, res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
