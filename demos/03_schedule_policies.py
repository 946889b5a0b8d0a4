"""Renoising schedule policies for the engine and the regularizer.

Prints the empirical ranges of the per-step noise-level draws under the four
policies, at a mid-grid generation step, plus an explicit range override.

Run:  python demos/03_schedule_policies.py
"""

import numpy as np

from dmdlab import DistillConfig, SchedulePolicy, sample_tau


def describe(policy, t, override=None):
    config = DistillConfig(schedule_policy=policy, tau_ca_range=override)
    rng = np.random.default_rng(0)
    ca, dm, shared = sample_tau(config, t, rng, size=20_000)
    print(f"{policy.value:22s} t={t}: "
          f"tau_ca in [{ca.min():.3f}, {ca.max():.3f}], "
          f"tau_dm in [{dm.min():.3f}, {dm.max():.3f}], shared_eps={shared}")


def main():
    t = 0.5
    for policy in SchedulePolicy:
        describe(policy, t)
    print("\nwith an explicit engine override [0, 0.05]:")
    describe(SchedulePolicy.DECOUPLED_HYBRID, t, override=(0.0, 0.05))


if __name__ == "__main__":
    main()
