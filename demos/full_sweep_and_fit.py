"""End to end: sweep the noise strength, emit the CSV, refit (k, s).

Generates the full figure-style dataset (coherence, concurrence, theory
curve, bootstrap error bars) for the 3-state alphabet with anticorrelated
environments and the fitted imperfection offset, then feeds the simulated
measurements back into the least-squares fitter to recover the generator
parameters.
"""

import numpy as np

from densecoding import (
    EncodingScheme,
    JointSpectrum,
    fit_k_s,
    run_sweep,
    sweep_rows_to_csv,
)


def main():
    # k slightly above -1 so the outcome tables keep genuine shot noise;
    # at exactly -1 every row is deterministic and the bars collapse to 0
    k_gen, s_gen = -0.95, 0.0749
    spec = JointSpectrum(k=k_gen)
    grid = np.sqrt(-2.0 * np.log(np.linspace(0.163, 0.95, 8)))[::-1]
    scheme = EncodingScheme.three_state()

    rows = run_sweep(spec, grid, scheme,
                     n_per_input=10_000, trials=300, seed=5, s=s_gen)

    print(sweep_rows_to_csv(rows))
    print("mi_theory is nearly flat; mi_mc_mean scatters around it with")
    print("error bars mi_mc_std from the parametric bootstrap.")
    print()

    points = [(row.kappa_abs, row.mi_mc_mean) for row in rows]
    fit = fit_k_s(points, scheme)
    print(f"refit of the simulated measurements: k_hat = {fit.k_hat:.4f}, "
          f"s_hat = {fit.s_hat:.4f}  (generator: k = {k_gen}, s = {s_gen})")
    print(f"residual sum of squares = {fit.residual_sum_squares:.3e} "
          f"over {fit.n_points} points")


if __name__ == "__main__":
    main()
