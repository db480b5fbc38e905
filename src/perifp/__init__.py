"""perifp: distributional periodicity of stochastic processes.

Submodules:
  coeff_dsl   expression language for (t, x, u) coefficients
  markov      N-periodicity of discrete-time particle systems
  bl_metric   bounded-Lipschitz distance between empirical measures
  sde_reflect projected Euler-Maruyama for reflected SDEs on boxes
  fpe_grid    conservative 1D Fokker-Planck finite differences
  period_map  monodromy operator K = U(T,0) and principal eigendata
  semilinear  monotone iteration for periodic semilinear problems
  cli         command-line entry point
"""

__version__ = "0.1.0"
