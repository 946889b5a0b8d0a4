"""Per-layer metrics and exact pass counts computed from recorded spans.

Scopes:
  * "per update": spans nested inside a ``distill.generator_update`` span,
    divided by the number of updates. Evaluation-point work is outside them.
  * "per eval": spans inside ``lab.runner.run_config`` but outside any
    update, divided by the number of evaluation points.
  * ``*.self_ms`` without a scope: mean self time per call over every traced
    call, set-up included.
"""

import statistics

from spans import CHILD, DIRECTIONS, END, FORWARDS, KEY, NAME, PARENT, ROWS, START

UPDATE = "distill.generator_update"
BACKWARD = "net.net_backward"
ADAM = "optim.adam_step"
BSIM = "distill.backward_simulate"
RUN = "lab.runner.run_config"
SAVE = "checkpoint.save_params"
TEACHER = "flow.train_teacher"


def _enclosing(spans, names):
    """For each span, the index of the innermost span (itself included)
    whose name is in names, or -1."""
    out = []
    for s in spans:
        if s[NAME] in names:
            out.append(len(out))
        else:
            out.append(out[s[PARENT]] if s[PARENT] >= 0 else -1)
    return out


def _self_ns(s):
    return s[END] - s[START] - s[CHILD]


class _Scopes:
    """Which update, direction, backward-simulate chain and run each span
    belongs to."""

    def __init__(self, spans):
        self.update = _enclosing(spans, (UPDATE,))
        self.direction = _enclosing(spans, DIRECTIONS)
        self.chain = _enclosing(spans, (BSIM,))
        self.run = _enclosing(spans, (RUN,))

    def in_eval(self, i):
        return self.update[i] < 0 and self.run[i] >= 0


def pass_count_errors(spans, workload, evals_per_run, labels, n_steps):
    """Compare traced pass counts with what the code implies; [] if exact.

    Every update must make exactly ``workload.forwards`` forward passes
    outside the backward-simulate chain (which makes at most n_steps - 1),
    ``workload.backwards`` backward passes and ``workload.adam_steps`` Adam
    steps. Each evaluation point samples every label with n_steps forwards.
    """
    scope = _Scopes(spans)
    counts = {i: [0, 0, 0, 0] for i, s in enumerate(spans) if s[NAME] == UPDATE}
    eval_forwards = 0
    for i, s in enumerate(spans):
        name, u = s[NAME], scope.update[i]
        if name in FORWARDS and scope.in_eval(i):
            eval_forwards += 1
        elif u < 0:
            continue
        elif name in FORWARDS:
            counts[u][1 if scope.chain[i] >= 0 else 0] += 1
        elif name == BACKWARD:
            counts[u][2] += 1
        elif name == ADAM:
            counts[u][3] += 1
    eval_points = evals_per_run * sum(1 for s in spans if s[NAME] == RUN)
    expect = (workload.forwards, workload.backwards, workload.adam_steps)
    wrong = [(u, c) for u, c in counts.items()
             if (c[0], c[2], c[3]) != expect or not 0 <= c[1] <= n_steps - 1]
    errors = []
    if wrong:
        u, (fwd, chain, bwd, adam) = wrong[0]
        errors.append(f"{len(wrong)} of {len(counts)} updates have wrong pass "
                      f"counts; first (span {u}): forwards {fwd} (+{chain} "
                      f"chain), backwards {bwd}, adam steps {adam}; expected "
                      f"{expect} (+0..{n_steps - 1} chain)")
    if eval_forwards != eval_points * labels * n_steps:
        errors.append(f"{eval_forwards} evaluation forwards over {eval_points} "
                      f"evaluation points; expected "
                      f"{eval_points * labels * n_steps}")
    return errors


def _eval_point_ns(spans, runs, eval_iterations):
    """Each evaluation point runs from the end of the update it follows to
    the start of the next update or of the final checkpoint writes."""
    children = {r: [] for r in runs}
    for i, s in enumerate(spans):
        if s[PARENT] in children:
            children[s[PARENT]].append(i)
    out = []
    for kids in children.values():
        updates = [pos for pos, c in enumerate(kids) if spans[c][NAME] == UPDATE]
        for it in eval_iterations:
            pos = updates[it - 1]
            nxt = next(spans[d][START] for d in kids[pos + 1:]
                       if spans[d][NAME] in (UPDATE, SAVE))
            out.append(nxt - spans[kids[pos]][END])
    return out


def layer_metrics(spans, eval_iterations, teacher_iterations):
    """Per-layer metrics, name -> (value, unit), from one set of traced spans.

    eval_iterations lists the 1-based updates of one run that are followed
    by an evaluation point.
    """
    scope = _Scopes(spans)
    runs = [i for i, s in enumerate(spans) if s[NAME] == RUN]
    updates = [s for s in spans if s[NAME] == UPDATE]
    n_upd = len(updates)
    n_eval = len(runs) * len(eval_iterations)

    def per_update(names, value=_self_ns):
        return sum(value(s) for i, s in enumerate(spans)
                   if s[NAME] in names and scope.update[i] >= 0) / n_upd

    def per_eval(names, value=_self_ns):
        return sum(value(s) for i, s in enumerate(spans)
                   if s[NAME] in names and scope.in_eval(i)) / n_eval

    def per_call(name):
        selfs = [_self_ns(s) for s in spans if s[NAME] == name]
        return sum(selfs) / len(selfs)

    def one(_):
        return 1

    # distinct (model, x, tau, cond) per direction span vs forwards made
    keys = {}
    for i, s in enumerate(spans):
        if s[NAME] in FORWARDS and scope.direction[i] >= 0:
            keys.setdefault(scope.direction[i], []).append(s[KEY])
    direction_forwards = sum(len(k) for k in keys.values())
    distinct = sum(len(set(k)) for k in keys.values())

    teacher = [s for s in spans if s[NAME] == TEACHER]
    update_ms = sorted((s[END] - s[START]) * 1e-6 for s in updates)
    ms = 1e-6
    return {
        "net.forward.calls_per_update": (per_update(FORWARDS, one), "count"),
        "net.forward.rows_per_update":
            (per_update(FORWARDS, lambda s: s[ROWS]), "count"),
        "net.forward.self_ms_per_update": (per_update(FORWARDS) * ms, "ms"),
        "net.forward.calls_per_eval": (per_eval(FORWARDS, one), "count"),
        "net.backward.calls_per_update": (per_update((BACKWARD,), one), "count"),
        "net.backward.self_ms_per_update":
            (per_update((BACKWARD,)) * ms, "ms"),
        "optim.adam_step.calls_per_update": (per_update((ADAM,), one), "count"),
        "optim.adam_step.self_ms_per_update": (per_update((ADAM,)) * ms, "ms"),
        "flow.renoise.self_ms_per_update":
            (per_update(("flow.renoise",)) * ms, "ms"),
        "flow.train_teacher.iters_per_s":
            (teacher_iterations * len(teacher)
             / (sum(s[END] - s[START] for s in teacher) * 1e-9), "1/s"),
        "distill.generator_update.ms_p50": (statistics.median(update_ms), "ms"),
        "distill.generator_update.ms_p99":
            (update_ms[min(n_upd - 1, int(0.99 * n_upd))], "ms"),
        "distill.direction.self_ms_per_update":
            (per_update(DIRECTIONS) * ms, "ms"),
        "distill.direction.forwards_per_update":
            (direction_forwards / n_upd, "count"),
        "distill.direction.unique_eval_ratio":
            (distinct / direction_forwards, "ratio"),
        "distill.backward_simulate.self_ms_per_update":
            (per_update((BSIM,)) * ms, "ms"),
        "distill.fake_model_update.self_ms_per_update":
            (per_update(("distill.fake_model_update",)) * ms, "ms"),
        "distill.gan_losses.self_ms_per_update":
            (per_update(("distill.gan_losses",)) * ms, "ms"),
        "distill.sample_generator.self_ms_per_eval":
            (per_eval(("distill.sample_generator",)) * ms, "ms"),
        "metrics.sliced_wasserstein2.self_ms_per_eval":
            (per_eval(("metrics.sliced_wasserstein2",)) * ms, "ms"),
        "metrics.mode_coverage.self_ms_per_eval":
            (per_eval(("metrics.mode_coverage",)) * ms, "ms"),
        "lab.runner.self_s":
            (sum(_self_ns(spans[r]) for r in runs) / len(runs) * 1e-9, "s"),
        "lab.runner.eval_point_ms":
            (statistics.mean(_eval_point_ns(spans, runs, eval_iterations)) * ms,
             "ms"),
        "checkpoint.save_params.self_ms": (per_call(SAVE) * ms, "ms"),
        "data.sample_dataset.self_ms":
            (per_call("data.sample_dataset") * ms, "ms"),
        "data.sample_points_for_labels.self_ms_per_update":
            (per_update(("data.sample_points_for_labels",)) * ms, "ms"),
    }
