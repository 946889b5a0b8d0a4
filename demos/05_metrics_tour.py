"""The evaluation toolbox: sliced Wasserstein, per-sample stats and mode
coverage.

Run:  python demos/05_metrics_tour.py
"""

import numpy as np

from dmdlab import (batch_sample_stats, gmm8, mode_coverage, sample_dataset,
                    sliced_wasserstein2)


def main():
    rng = np.random.default_rng(0)

    a = np.array([[0.0]])
    b = np.array([[3.0]])
    print("point masses 0 vs 3 (1-D):",
          sliced_wasserstein2(a, b, 8, np.random.default_rng(1)))

    spec = gmm8()
    batch = sample_dataset(spec, 4000, rng)
    means, variances = batch_sample_stats(batch.points)
    print(f"real data: mean of per-sample means {means.mean():+.4f}, "
          f"mean of per-sample variances {variances.mean():.4f}")
    print("coverage of label 0 by its own samples:",
          mode_coverage(batch.points[batch.labels == 0], spec, 0))


if __name__ == "__main__":
    main()
