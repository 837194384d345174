"""Figure 11 — LBP active fraction.

Paper: "LBP exhibits a sharp drop in the number of active vertices over
time. Graph size has no effect on the shape of active fraction."
"""

import numpy as np

from repro.experiments.reporting import sparkline


def test_fig11_lbp_active_fraction(solver_runs, artifact, benchmark):
    def compute():
        return {run.spec.nrows: run.trace.active_fraction()
                for run in solver_runs["lbp"]}

    curves = benchmark(compute)
    lines = ["Figure 11: LBP active fraction (x = iteration)"]
    for side, curve in sorted(curves.items()):
        lines.append(f"  side={side:<4}: {sparkline(curve[:24])} "
                     f"iters={curve.size} final={curve[-1]:.3f}")
    artifact("fig11_lbp_active_fraction", "\n".join(lines))

    for curve in curves.values():
        # Starts fully active, drops sharply within a few iterations
        # (the paper's signature shape), and ends nearly drained.
        assert curve[0] == 1.0
        assert curve[min(8, curve.size - 1)] < 0.5
        assert curve[-1] < 0.2
    # Size-independent shape: comparing on the common iteration prefix
    # (the paper overlays sizes on one iteration axis), the curves of
    # different grid sides track each other closely.
    k = min(c.size for c in curves.values())
    mats = np.vstack([c[:k] for c in curves.values()])
    for i in range(mats.shape[0]):
        for j in range(i + 1, mats.shape[0]):
            assert np.corrcoef(mats[i], mats[j])[0, 1] > 0.7


def test_fig11_jacobi_dd_always_active(solver_runs):
    """Paper Section 4.4: 'In both Jacobi and DD, all vertices are
    active for all iterations.'"""
    for alg in ("jacobi", "dd"):
        for run in solver_runs[alg]:
            np.testing.assert_allclose(run.trace.active_fraction(), 1.0)
