"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The desk-scale analogue criteria (7 and 8) carry an explicit fallback: when a
directional outcome does not reproduce on the easy 2-D benchmark, the runs
must still emit complete trajectories and the failure must be reported
loudly (here: printed and written to directional_outcomes.json in the preset
root), never hidden. Directional clauses that are structural on this
benchmark are asserted outright.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from dmdlab import (NULL_LABEL, NetConfig, init_params, net_forward,
                    net_forward_cached, net_backward)
from dmdlab.data import expected_sample_stats, gmm8, sample_dataset
from dmdlab.distill import (DistillConfig, Mode, SchedulePolicy, delta_ca,
                            delta_dm, dmd_direction_coupled,
                            dmd_direction_decoupled, fake_model_update,
                            init_distill_state, meanvar_kl_loss,
                            observer_probe, proxy_loss_and_grad, sample_tau)
from dmdlab.flow import cfg_combine
from dmdlab.lab.config import run_config_from_dict
from dmdlab.lab.presets import run_preset
from dmdlab.lab.runner import run_config
from dmdlab.metrics import mode_coverage, sliced_wasserstein2

# ---------------------------------------------------------------------------
# helpers


def report(num, name, ok, detail="", fallback=False):
    tag = "PASS" if ok else "FAIL"
    if ok and fallback:
        tag = "PASS*"
    print(f"[{tag}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def tiny_net(seed, **kw):
    cfg = NetConfig(dim=kw.pop("dim", 2), n_labels=kw.pop("n_labels", 4),
                    hidden=kw.pop("hidden", 8), n_hidden=kw.pop("n_hidden", 2),
                    cond_dim=4, temb_dim=6, n_freq=3, **kw)
    return init_params(cfg, np.random.default_rng(seed))


def read_metrics(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_directional_report(root: Path, clauses: list):
    payload = [{"clause": c, "holds": bool(h), "detail": d}
               for c, h, d in clauses]
    (root / "directional_outcomes.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    for c, h, d in clauses:
        marker = "reproduced" if h else "NOT reproduced (reported)"
        print(f"    direction {c!r}: {marker} - {d}")


# ---------------------------------------------------------------------------
# session fixtures: shared teacher (from conftest) and the preset runs


@pytest.fixture(scope="session")
def preset_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance_presets")


@pytest.fixture(scope="session")
def decompose_result(teacher_bundle, preset_root):
    root = preset_root / "decompose"
    arts = run_preset("decompose", root,
                      {"teacher": str(teacher_bundle["ckpt_path"])})
    return root, arts


@pytest.fixture(scope="session")
def regularizers_result(teacher_bundle, preset_root):
    root = preset_root / "regularizers"
    arts = run_preset("regularizers", root,
                      {"teacher": str(teacher_bundle["ckpt_path"])})
    return root, arts


@pytest.fixture(scope="session")
def schedule_result(teacher_bundle, preset_root):
    root = preset_root / "schedule-ablation"
    start = time.perf_counter()
    arts = run_preset("schedule-ablation", root,
                      {"teacher": str(teacher_bundle["ckpt_path"])})
    elapsed = time.perf_counter() - start
    return root, arts, elapsed


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_decomposition_identity():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        real = tiny_net(2000 + trial)
        fake = tiny_net(4000 + trial)
        x_tau = rng.standard_normal((4, 2))
        tau = rng.uniform()
        alpha = rng.uniform(0.0, 10.0)
        cond = rng.integers(0, 4, size=4)
        uncond = np.full(4, NULL_LABEL)
        eq_combined = (cfg_combine(net_forward(real, x_tau, tau, cond),
                                   net_forward(real, x_tau, tau, uncond),
                                   alpha)
                       - net_forward(fake, x_tau, tau, cond))
        eq_split = (delta_dm(real, fake, x_tau, tau, cond)
                    + delta_ca(real, x_tau, tau, cond, alpha))
        worst = max(worst, float(np.max(np.abs(eq_combined - eq_split))))
    elapsed = time.perf_counter() - start
    report(1, "decomposition identity",
           worst < 1e-12 and elapsed < 10.0,
           f"max deviation {worst:.3e} over 1000 draws in {elapsed:.1f}s")


def test_criterion_02_reduction_identity_alpha_one():
    rng = np.random.default_rng(1002)
    identical = True
    for trial in range(100):
        real = tiny_net(6000 + trial)
        fake = tiny_net(8000 + trial)
        gen_out = rng.standard_normal((4, 2))
        cond = rng.integers(0, 4, size=4)
        seed = 9000 + trial
        full = DistillConfig(alpha=1.0, mode=Mode.FULL_DMD,
                             normalizer_on=False, batch=4)
        theory = DistillConfig(alpha=1.0, mode=Mode.THEORY_DMD,
                               normalizer_on=False, batch=4)
        d1, *_ = dmd_direction_coupled(real, fake, gen_out, 0.0, cond, full,
                                       np.random.default_rng(seed))
        d2, *_ = dmd_direction_coupled(real, fake, gen_out, 0.0, cond, theory,
                                       np.random.default_rng(seed))
        if not (np.array_equal(d1.delta_total, d2.delta_total)
                and np.array_equal(d1.delta_dm, d2.delta_dm)):
            identical = False
            break
    report(2, "reduction identity at alpha=1", identical,
           "practical and theory directions bit-identical over 100 draws")


def test_criterion_03_proxy_gradient_law():
    rng = np.random.default_rng(1003)
    # analytic law, exact
    for _ in range(50):
        g = rng.standard_normal((5, 2))
        d = rng.standard_normal((5, 2))
        lam = float(rng.uniform(0.1, 3.0))
        _, grad = proxy_loss_and_grad(g, d, lam)
        assert np.array_equal(grad, -2.0 * lam * d)
    # end-to-end parameter gradients vs central finite differences
    worst = 0.0
    for trial in range(20):
        params = tiny_net(10_000 + trial)
        n = int(rng.integers(2, 5))
        z = rng.standard_normal((n, 2))
        t = float(rng.uniform(0, 0.9))
        cond = rng.integers(0, 4, size=n)
        lam = float(rng.uniform(0.2, 2.0))
        delta = rng.standard_normal((n, 2))
        gen_out, cache = net_forward_cached(params, z, t, cond)
        target = gen_out + lam * delta
        grads = net_backward(params, cache, -2.0 * lam * delta)
        slot_list = list(params.slots())
        grad_list = list(grads.slots())
        for _ in range(4):
            si = int(rng.integers(len(slot_list)))
            name, arr = slot_list[si]
            _, g = grad_list[si]
            idx = np.unravel_index(int(rng.integers(arr.size)), arr.shape)
            h = 1e-5
            old = arr[idx]
            arr[idx] = old + h
            up = float(np.sum((net_forward(params, z, t, cond) - target) ** 2))
            arr[idx] = old - h
            dn = float(np.sum((net_forward(params, z, t, cond) - target) ** 2))
            arr[idx] = old
            fd = (up - dn) / (2 * h)
            denom = max(abs(fd), abs(g[idx]), 1e-8)
            worst = max(worst, abs(fd - g[idx]) / denom)
    report(3, "proxy-loss gradient law", worst < 1e-5,
           f"analytic law exact; end-to-end FD relative error {worst:.2e}")


def test_criterion_04_schedule_bounds():
    rng = np.random.default_rng(1004)
    ok = True
    detail = []
    for t in (0.0, 0.25, 0.5, 0.75):
        expectations = {
            SchedulePolicy.COUPLED_SHARED: ((0, 1), (0, 1)),
            SchedulePolicy.DECOUPLED_FULL: ((0, 1), (0, 1)),
            SchedulePolicy.DECOUPLED_CONSTRAINED: ((t, 1), (t, 1)),
            SchedulePolicy.DECOUPLED_HYBRID: ((t, 1), (0, 1)),
        }
        for policy, ((cl, ch), (dl, dh)) in expectations.items():
            ca, dm, shared = sample_tau(DistillConfig(schedule_policy=policy),
                                        t, rng, size=100_000)
            violations = int(np.sum((ca < cl) | (ca > ch) | (dm < dl)
                                    | (dm > dh)))
            if violations:
                ok = False
                detail.append(f"{policy.value}@t={t}: {violations} violations")
            if policy == SchedulePolicy.COUPLED_SHARED:
                if not (shared and np.array_equal(ca, dm)):
                    ok = False
                    detail.append("coupled draws not shared/equal")
    # decoupled code path under the coupled policy is bit-identical
    real, fake = tiny_net(11_000), tiny_net(11_001)
    gen_out = rng.standard_normal((6, 2))
    cond = rng.integers(0, 4, size=6)
    cfg = DistillConfig(alpha=4.0, normalizer_on=False, batch=6,
                        schedule_policy=SchedulePolicy.COUPLED_SHARED)
    d1, *_ = dmd_direction_coupled(real, fake, gen_out, 0.25, cond, cfg,
                                   np.random.default_rng(42))
    d2, *_ = dmd_direction_decoupled(real, fake, gen_out, 0.25, cond, cfg,
                                     np.random.default_rng(42))
    if not np.array_equal(d1.delta_total, d2.delta_total):
        ok = False
        detail.append("decoupled path under coupled policy not bit-identical")
    report(4, "schedule bounds and coupling degeneracy", ok,
           "; ".join(detail) or "zero violations on 1e5 draws per policy/t")


def test_criterion_05_moment_kl_values():
    loss0, _ = meanvar_kl_loss(np.array([[1.0, -1.0], [1.0, -1.0]]), 0.0, 1.0)
    loss1, _ = meanvar_kl_loss(np.array([[0.9, -0.9]] * 4), 0.075, 0.81)
    # finite-difference gradient check
    rng = np.random.default_rng(1005)
    batch = rng.standard_normal((6, 5))
    t2 = (0.2, 0.6)  # (mu, var)
    _, grad = meanvar_kl_loss(batch, *t2)
    worst = 0.0
    h = 1e-6
    for i in range(6):
        for j in range(5):
            bp, bm = batch.copy(), batch.copy()
            bp[i, j] += h
            bm[i, j] -= h
            lp, _ = meanvar_kl_loss(bp, *t2)
            lm, _ = meanvar_kl_loss(bm, *t2)
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(fd - grad[i, j]) / max(abs(fd), 1e-9))
    ok = loss0 == 0.0 and abs(loss1 - 0.0034722) < 1e-7 and worst < 1e-6
    report(5, "moment-KL unit values", ok,
           f"loss at targets {loss0}; worked value {loss1:.9f} "
           f"(want 0.0034722...); FD rel err {worst:.2e}")


@pytest.mark.slow
def test_criterion_06_teacher_quality_gate(teacher_bundle):
    spec = teacher_bundle["spec"]
    teacher = teacher_bundle["params"]
    seconds = teacher_bundle["seconds"]

    r1 = sample_dataset(spec, 10_000, np.random.default_rng(501))
    r2 = sample_dataset(spec, 10_000, np.random.default_rng(502))
    floor = sliced_wasserstein2(r1.points, r2.points, 128,
                                np.random.default_rng(503))
    threshold = 2.0 * floor

    from dmdlab.flow import sample_teacher
    rng = np.random.default_rng(504)
    sw_vals, cov_hits = [], 0
    for label in range(spec.label_count):
        out = sample_teacher(teacher, 50, 1.0, label, 2500, rng)
        ref = r2.points[r2.labels == label]
        sw_vals.append(sliced_wasserstein2(out, ref, 128,
                                           np.random.default_rng(505)))
        cov_hits += mode_coverage(out, spec, label) * len(
            spec.components_for(label))
    sw2 = float(np.mean(sw_vals))
    ok = sw2 <= threshold and cov_hits >= 7 and seconds <= 600.0
    report(6, "teacher quality gate", ok,
           f"sw2 {sw2:.4f} <= {threshold:.4f} (2x noise floor {floor:.4f}); "
           f"modes {cov_hits:.0f}/8; trained in {seconds:.0f}s (<=600s)")


@pytest.mark.slow
def test_criterion_07_decompose_analogue(decompose_result):
    root, arts = decompose_result
    by_name = {a.dir.name: read_metrics(a.metrics_path) for a in arts}
    budget = json.loads((root / "preset.json").read_text())["base"]["iterations"]

    # trajectories must exist for every arm, complete or aborted-with-dump
    complete = True
    for a in arts:
        rows = by_name[a.dir.name]
        if not rows:
            complete = False
        elif int(rows[-1]["iteration"]) < budget:
            complete = complete and (a.dir / "diagnostic_dump.json").exists()

    def sw_series(name):
        return {int(r["iteration"]): float(r["sw2"]) for r in by_name[name]}

    full, ca, dm = sw_series("full_dmd"), sw_series("ca_only"), sw_series("dm_only")
    final_it = max(full)
    clause_final = full[final_it] < dm[max(dm)]

    early_its = [it for it in sorted(full) if it <= 0.2 * budget]
    early_ok = bool(early_its)
    early_detail = []
    for it in early_its:
        a, b = ca.get(it), full.get(it)
        if a is None or b is None:
            early_ok = False
            continue
        rel = abs(a - b) / max(a, b)
        early_detail.append(f"it{it}: {rel:.1%}")
        if rel > 0.25:
            early_ok = False

    write_directional_report(root, [
        ("final sw2: full objective beats matching-only", clause_final,
         f"full {full[final_it]:.4f} vs matching-only {dm[max(dm)]:.4f} "
         "(pure matching already solves the easy 2-D benchmark; the engine "
         "bakes a guidance pattern that shifts mass off the data manifold)"),
        ("engine-only matches full objective early (first 20%, within 25%)",
         early_ok, "; ".join(early_detail)),
    ])
    ok = complete and early_ok
    report(7, "engine-vs-regularizer analogue", ok,
           f"trajectories complete={complete}; early match "
           f"{'; '.join(early_detail)}; final-direction "
           f"{'holds' if clause_final else 'reported as not reproduced'}",
           fallback=not clause_final)


@pytest.mark.slow
def test_criterion_08_variance_analogue(regularizers_result):
    root, arts = regularizers_result
    spec = gmm8()
    _, vstar = expected_sample_stats(spec)
    by_name = {a.dir.name: read_metrics(a.metrics_path) for a in arts}

    def var_ratios(name):
        return [float(r["mean_of_vars"]) / vstar for r in by_name[name]]

    ca = var_ratios("ca_none")
    full = var_ratios("ca_dm")
    mv = var_ratios("ca_meanvar_kl")

    clause_blowup = max(ca) > 1.5
    clause_full = all(0.7 <= v <= 1.3 for v in full)
    clause_mv = all(0.7 <= v <= 1.3 for v in mv)

    write_directional_report(root, [
        ("engine-only variance exceeds 1.5x analytic within budget",
         clause_blowup, f"max ratio {max(ca):.2f}x"),
        ("full objective variance stays within [0.7, 1.3]x", clause_full,
         f"range [{min(full):.2f}, {max(full):.2f}]x"),
        ("engine + moment-KL variance stays within [0.7, 1.3]x", clause_mv,
         f"range [{min(mv):.2f}, {max(mv):.2f}]x"),
    ])
    # the blow-up is the core phenomenon: asserted outright; the bounded
    # clauses are asserted too (calibrated to hold at the preset defaults)
    ok = clause_blowup and clause_full and clause_mv
    report(8, "variance-trajectory analogue", ok,
           f"engine-only max {max(ca):.2f}x (>1.5); full range "
           f"[{min(full):.2f},{max(full):.2f}]; moment-KL range "
           f"[{min(mv):.2f},{max(mv):.2f}]")


@pytest.mark.slow
def test_criterion_09_observer_corrective_mechanism(teacher_bundle):
    spec = teacher_bundle["spec"]
    teacher = teacher_bundle["params"]
    v = np.array([2.0, 2.0])

    config = DistillConfig(normalizer_on=False, batch=128, lr_fake=6e-4)
    state = init_distill_state(teacher, config, spec, seed=4321)

    # with fake identical to the teacher, the matching term vanishes
    pts = np.random.default_rng(1).standard_normal((64, 2))
    rows = observer_probe(state, teacher, pts, [0.1, 0.5, 0.9], 0,
                          artifact_dir=v, rng=np.random.default_rng(2))
    max_mag = max(mag for _, mag, _ in rows)

    # train the observer on a deliberately biased generator for 2k steps
    rng = np.random.default_rng(3)
    for _ in range(2000):
        labels = rng.integers(0, spec.label_count, size=128)
        z = rng.standard_normal((128, 2))
        biased = net_forward(teacher, z, 0.0, labels) + v
        fake_model_update(state, biased, labels, state.rng_fake)

    aligns = {}
    for tau in (0.1, 0.5, 0.9):
        vals = []
        for label in range(spec.label_count):
            z = rng.standard_normal((128, 2))
            probe_pts = net_forward(teacher, z, 0.0, label) + v
            out = observer_probe(state, teacher, probe_pts, [tau], label,
                                 artifact_dir=v,
                                 rng=np.random.default_rng(100 + label))
            vals.append(out[0][2])
        aligns[tau] = float(np.mean(vals))

    ok = max_mag < 1e-10 and all(a < 0.0 for a in aligns.values())
    report(9, "observer corrective mechanism", ok,
           f"fake==real magnitude {max_mag:.1e} (<1e-10); alignment vs bias "
           + ", ".join(f"tau={t}: {a:.3f}" for t, a in aligns.items()))


@pytest.mark.slow
def test_criterion_10_reproducibility_gate(schedule_result):
    root, arts, elapsed = schedule_result

    with open(root / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    order_ok = [r["run"] for r in summary] == [
        "coupled_shared", "decoupled_full", "decoupled_constrained",
        "decoupled_hybrid"]

    # re-run one member from its snapshot: metrics must be byte-identical
    member = arts[0]
    snapshot = json.loads(member.config_path.read_text())
    rerun_dir = root / "rerun_check"
    rerun = run_config(run_config_from_dict(snapshot), rerun_dir)
    identical = (member.metrics_path.read_bytes()
                 == rerun.metrics_path.read_bytes())

    ok = order_ok and identical and elapsed <= 1800.0
    report(10, "reproducibility gate", ok,
           f"summary rows ordered={order_ok}; member re-run byte-identical="
           f"{identical}; full preset in {elapsed / 60:.1f} min (<=30)")
