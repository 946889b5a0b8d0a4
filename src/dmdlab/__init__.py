"""Desk-scale laboratory for few-step distillation of conditional flow models.

Trains a conditional flow-matching teacher on synthetic 2-D mixtures, distills
it into few-step generators through the decomposed objective (CFG-augmentation
engine plus distribution-matching regularizer), and measures the resulting
dynamics with distribution-level metrics.
"""

from .net import (NULL_LABEL, NetConfig, NetParams, init_params, net_forward,
                  net_forward_cached, net_backward, zeros_like_params)
from .optim import AdamState, init_adam, adam_step, ema_update
from .checkpoint import save_params, load_params
from .data import (Component, LabeledBatch, MixtureSpec, gmm8, sample_dataset,
                   sample_points_for_labels, target_stats,
                   expected_sample_stats)
from .flow import (TeacherConfig, cfg_combine, renoise,
                   sample_teacher, teacher_loss, train_teacher)
from .distill import (DistillConfig, DistillState, Mode, NonFiniteError,
                      Regularizer, SchedulePolicy, UpdateDirection,
                      backward_simulate, delta_ca, delta_dm,
                      dmd_direction_coupled, dmd_direction_decoupled,
                      fake_model_update, gan_losses, generator_update,
                      init_distill_state, meanvar_kl_loss, observer_probe,
                      proxy_loss_and_grad, sample_generator, sample_tau)
from .metrics import (batch_sample_stats, csv_row, mode_coverage,
                      sliced_wasserstein2, wasserstein2_1d)

__all__ = [
    "NULL_LABEL", "NetConfig", "NetParams", "init_params",
    "net_forward", "net_forward_cached", "net_backward", "zeros_like_params",
    "AdamState", "init_adam", "adam_step", "ema_update",
    "save_params", "load_params",
    "Component", "LabeledBatch", "MixtureSpec", "gmm8", "sample_dataset",
    "sample_points_for_labels", "target_stats", "expected_sample_stats",
    "TeacherConfig", "cfg_combine", "renoise",
    "sample_teacher", "teacher_loss", "train_teacher",
    "DistillConfig", "DistillState", "Mode", "NonFiniteError", "Regularizer",
    "SchedulePolicy", "UpdateDirection", "backward_simulate", "delta_ca",
    "delta_dm", "dmd_direction_coupled", "dmd_direction_decoupled",
    "fake_model_update", "gan_losses", "generator_update",
    "init_distill_state", "meanvar_kl_loss", "observer_probe",
    "proxy_loss_and_grad", "sample_generator", "sample_tau",
    "batch_sample_stats", "csv_row", "mode_coverage",
    "sliced_wasserstein2", "wasserstein2_1d",
]
