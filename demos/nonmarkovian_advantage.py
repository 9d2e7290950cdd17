"""Receiver-side noise as a resource: anticorrelated environments.

Counterintuitively, letting the *receiver* dephase his photon too can raise
the capacity, provided the two frequency environments are anticorrelated.
At k = -1 the receiver stage exactly undoes the sender stage and the
encoded Bell state reappears.  The same advantage can be written as a
function of the information-backflow measure N = |kappa|^(1-k^2) - |kappa|.
"""

import numpy as np

from densecoding import (
    BellLabel,
    DephasingTimes,
    JointSpectrum,
    bell_state,
    capacity_bob_noise,
    capacity_from_non_markovianity,
    capacity_pre_encoding,
    dephasing_mask,
    fidelity,
    non_markovianity,
)


def main():
    kappa = 0.163  # strongly dephased shared state
    print(f"coherence magnitude |kappa| = {kappa}")
    print(f"capacity without receiver noise: {capacity_pre_encoding(kappa):.4f} bits")
    print()
    print(f"{'k':>6} {'N backflow':>11} {'C both noises':>14} {'C from N':>10}")
    for k in (0.0, -0.25, -0.5, -0.75, -0.9, -1.0):
        n = non_markovianity(kappa, k)
        c = capacity_bob_noise(kappa, k)
        c_n = capacity_from_non_markovianity(n, kappa)
        print(f"{k:6.2f} {n:11.5f} {c:14.6f} {c_n:10.6f}")

    # at perfect anticorrelation the receiver stage rebuilds the Bell state
    spec = JointSpectrum(k=-1.0)
    t = np.sqrt(-2.0 * np.log(kappa))
    sent = BellLabel.PSI_PLUS
    # noise before the X encoding: the sender coefficient is flipped
    print()
    for label, times in (("sender stage only", DephasingTimes(t, 0.0)),
                         ("both stages", DephasingTimes(t, t))):
        rho = bell_state(sent) * dephasing_mask(spec, times, flip_sender=True)
        print(f"k = -1, {label}: fidelity with the encoded "
              f"{sent.value} = {fidelity(rho, bell_state(sent)):.12f}")


if __name__ == "__main__":
    main()
