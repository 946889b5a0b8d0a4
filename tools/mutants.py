"""Probe how strongly the fast test loop pins the library: apply one-line
faults, one per copy of the tree, and see which the tests catch.

    python3 tools/mutants.py

Each mutant in MUTANTS replaces one exact piece of one line of src/dmdlab.
The script first checks that every piece occurs exactly once, then runs the
unmutated tree, which must pass, and then each mutant: it copies the tree
(without .git and caches) into a temporary directory, applies the mutant
there and runs ``pytest -m "not slow" -x`` in that copy at 1 BLAS thread.
At most two copies run at a time, each in its own directory, so no two runs
share a tree. It prints one line per mutant, killed (a test failed; the
first failure is named) or survived, with the wall time, then the totals. It exits 0 when every run finished, 2 when a mutant does not
apply or the unmutated tree fails.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".cache", ".hypothesis",
                              ".pytest_cache", ".bench_out")

# name, file under src/dmdlab, the exact text, its replacement
MUTANTS = (
    ("sample_tau draws tau_dm from the CA range", "distill.py",
     "rng.uniform(*dm_range, size)", "rng.uniform(*ca_range, size)"),
    ("backward_simulate renoises to the current level", "distill.py",
     "renoise(xhat, grid[j + 1],", "renoise(xhat, grid[j],"),
    ("GAN generator signal flips sign", "distill.py",
     "up_gen = (_sigmoid(lf_) - 1.0)", "up_gen = (1.0 - _sigmoid(lf_))"),
    ("discriminator loss drops its real term", "distill.py",
     "float(np.mean(_softplus(-lr_)) + np.mean(_softplus(lf_)))",
     "float(np.mean(_softplus(lf_)))"),
    ("normalizer epsilon 1e-8 becomes 1e-6", "distill.py",
     "keepdims=True) + 1e-8)", "keepdims=True) + 1e-6)"),
    ("fake_model_update draws tau from [0, 0.99)", "distill.py",
     "tau = rng.uniform(0.0, 1.0)", "tau = rng.uniform(0.0, 0.99)"),
    ("moment-KL injection loses its idx.size factor", "distill.py",
     "reg_grad[idx] = idx.size * grad_g", "reg_grad[idx] = grad_g"),
    ("normalizer reference read at x_ca, tau_ca", "distill.py",
     "ref = real(x_dm, tau_dm, cond)", "ref = real(x_ca, tau_ca, cond)"),
    ("check_number lets bools through", "net.py",
     "and not isinstance(value, bool))", ")"),
    ("check_number treats a closed lower end as open", "net.py",
     'ends[0] == "[" and lo == x', 'ends[0] == "(" and lo == x'),
    ("cfg_combine anchors at the conditional", "flow.py",
     "return s_uncond + alpha * (s_cond - s_uncond)",
     "return s_cond + alpha * (s_cond - s_uncond)"),
    ("Adam's second moment takes beta1's correction", "optim.py",
     "c2 = 1.0 - BETA2 ** state.step", "c2 = 1.0 - BETA1 ** state.step"),
    ("EMA weights the live network by decay", "optim.py",
     "ema.flat += (1.0 - decay) * live.flat", "ema.flat += decay * live.flat"),
    ("SW2 averages over one projection too many", "metrics.py",
     "return total / n_proj", "return total / (n_proj + 1)"),
)


def fail(message) -> None:
    print(message, file=sys.stderr)
    sys.exit(2)


def check_applies() -> None:
    for name, file, old, _ in MUTANTS:
        count = (ROOT / "src" / "dmdlab" / file).read_text().count(old)
        if count != 1:
            fail(f"mutant {name!r}: {old!r} occurs {count} times in {file}, "
                 "not once")


def run(mutant):
    """(killed, first failing test or '', seconds) for one mutant, or for
    the unmutated tree when mutant is None."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        if mutant is not None:
            _, file, old, new = mutant
            path = tree / "src" / "dmdlab" / file
            path.write_text(path.read_text().replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(tree / "src"),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-m", "not slow", "-x", "-q",
             "-p", "no:cacheprovider"],
            cwd=tree, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return proc.returncode != 0, failed.group(1) if failed else "", seconds


def main() -> None:
    check_applies()
    killed, failure, seconds = run(None)
    if killed:
        fail(f"the unmutated tree fails ({failure or 'see pytest'}); no "
             "mutant can be judged")
    print(f"{'unmutated tree':<50} passed   {seconds:6.1f} s", flush=True)
    survived = 0
    with ThreadPoolExecutor(2) as pool:
        for (name, file, _, _), (killed, failure, seconds) in zip(
                MUTANTS, pool.map(run, MUTANTS)):
            survived += not killed
            status = "killed" if killed else "survived"
            print(f"{name:<50} {status:<8} {seconds:6.1f} s  {failure}",
                  flush=True)
    print(f"{len(MUTANTS) - survived} killed, {survived} survived of "
          f"{len(MUTANTS)}")


if __name__ == "__main__":
    main()
