"""A miniature distillation run, step by step, at the library level.

Trains a short-budget teacher, then runs a few hundred generator updates of
the full objective with the decoupled-hybrid schedule and prints the metric
trail. For the real experiments use the CLI presets, which add artifact
directories, CSV logs and plots.

Run:  python demos/04_distillation_run.py
"""

import numpy as np

from dmdlab import (DistillConfig, Mode, SchedulePolicy, TeacherConfig,
                    batch_sample_stats, expected_sample_stats, gmm8,
                    generator_update, init_distill_state, mode_coverage,
                    sample_dataset, sample_generator, sliced_wasserstein2,
                    train_teacher)


def evaluate(state, config, spec, ref):
    """SW2, mode coverage and mean per-sample variance of a fresh cloud."""
    rng = np.random.default_rng(123)
    sw, cov, clouds = [], [], []
    for label in range(spec.label_count):
        cond = np.full(256, label)
        cloud = sample_generator(state.generator, config.grid, cond, rng)
        sw.append(sliced_wasserstein2(cloud, ref.points[ref.labels == label],
                                      64, np.random.default_rng(7)))
        cov.append(mode_coverage(cloud, spec, label))
        clouds.append(cloud)
    _, variances = batch_sample_stats(np.concatenate(clouds))
    return float(np.mean(sw)), float(np.mean(cov)), float(variances.mean())


def main():
    spec = gmm8()
    print("training a short-budget teacher ...")
    teacher = train_teacher(spec, TeacherConfig(iterations=4000),
                            np.random.default_rng(0))
    ref = sample_dataset(spec, 5000, np.random.default_rng(1))

    config = DistillConfig(alpha=1.5, n_steps=2, mode=Mode.FULL_DMD,
                           normalizer_on=False, lr_fake=4e-4, batch=256,
                           schedule_policy=SchedulePolicy.DECOUPLED_HYBRID)
    state = init_distill_state(teacher, config, spec, seed=0)

    _, vstar = expected_sample_stats(spec)
    sw, cov, var = evaluate(state, config, spec, ref)
    print(f"before distillation: sw2={sw:.4f} coverage={cov:.3f} "
          f"var_ratio={var / vstar:.2f}")
    for step in range(1, 401):
        record = generator_update(state, teacher, config)
        if step % 100 == 0:
            sw, cov, var = evaluate(state, config, spec, ref)
            print(f"update {step:4d}: sw2={sw:.4f} coverage={cov:.3f} "
                  f"var_ratio={var / vstar:.2f} "
                  f"loss_fake={record['loss_fake']:.4f}")
    print("done; generator now samples in", config.n_steps, "steps")


if __name__ == "__main__":
    main()
