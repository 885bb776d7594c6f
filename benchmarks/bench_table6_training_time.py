"""Table VI — offline training and embedding time.

Per-epoch time, epochs to converge, total training time and bulk embedding
time for Siamese / NeuTraj / NT-No-SAM / NT-No-WS. Expected shape (paper):
SAM variants pay more per epoch but converge in fewer epochs than the
Siamese baseline; SAM embedding is slightly slower than plain LSTM.
"""

import pytest

from repro.experiments import format_table, run_training_time, train_variant


@pytest.fixture(scope="module")
def table6(porto_workload):
    return run_training_time(porto_workload, "frechet")


def test_table6_training_time(benchmark, table6, porto_workload, report):
    # Kernel: bulk-embedding a batch with the trained full model.
    model = train_variant("neutraj", porto_workload, "frechet")
    batch = porto_workload.database[:64]
    benchmark(lambda: model.embed(batch))

    rows = [[r.method, f"{r.seconds_per_epoch:.1f}s", r.epochs_to_converge,
             f"{r.total_seconds:.1f}s", f"{r.embed_seconds:.1f}s"]
            for r in table6]
    report("table6_training_time",
           format_table(
               f"Table VI: offline cost (embedding {table6[0].embed_count} "
               "trajectories)",
               ["method", "t_epoch", "#epochs", "t_total", "t_embed"], rows))

    by_method = {r.method: r for r in table6}
    # SAM adds per-epoch cost over the plain-LSTM ablation.
    assert (by_method["neutraj"].seconds_per_epoch
            > by_method["nt_no_sam"].seconds_per_epoch * 0.9)
    # SAM-based embedding is not faster than plain LSTM embedding.
    assert (by_method["neutraj"].embed_seconds
            > by_method["nt_no_sam"].embed_seconds * 0.8)
    assert all(r.total_seconds > 0 for r in table6)
