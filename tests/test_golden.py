"""Golden outputs: the sha256 of the regret CSV for seven small pinned configs.

Each config is the synthetic world at n=20, d=5, k=5, T=300, 2
repetitions, seed 0.  A change that should leave every output
byte-identical (a refactor, a deletion, a speedup) must keep these
hashes; criterion 9 only checks that a rerun of the same code matches
itself.

The hashes hold for Python 3.11 with numpy 2.4 on OpenBLAS 0.3.31
(scipy-openblas, x86_64 Haswell kernels).  Another numpy or BLAS may
round differently and fail these tests without any fault in the code.
A change that is allowed to move numbers re-pins them and says so in
CHANGES.md.  The mm hashes pin the MM refit's rule: the maximum a
posteriori weights under an independent Gamma(1 + 1e-3, n 1e-3) prior
per arm, with arms never played at 1/n, fitted by Newton steps in the
log-weights (an MM step when a Newton point neither lowers the residual
nor raises the log-posterior) until every arm's stationarity residual
is below 1e-8.
They also pin MM's choice: the top-k by weight, ties to the lower index.

Three more configs pin the carried-inverse (Woodbury) path of
``estimator``, which every cppl run takes once its warm-up ends: cppl
with winner and with ranking feedback at d=40, and with winner feedback
at d=12.
"""

import hashlib

import pytest

from preselect import ExperimentConfig, emit_results, run_experiment

GOLDEN = {
    ("cppl", "winner"): "b82397c428349debb569c33a62145e29b6523ff882128f31d5e6d5380f178c46",
    ("egreedy", "winner"): "92593b65363ada3a7cd7cf26ce2d9790d6ac4a87930b4b92cef3c7504a4ce895",
    ("mm", "winner"): "08a9220ba9281e8b92e3d2bf79de8430fd699c0cbca9a412be9f6aaff33821e4",
    ("cppl", "ranking"): "22ed1f8cdbd3be1e5a3e955f4e83dabab84b760df13451329247bd6d61a74bc5",
    ("mm", "ranking"): "409a1978f2c4c80f9c1be6e8962d908ec4847907a3b92f43188f36c54c3e0da3",
    ("egreedy", "ranking"): "d2b584bef88b917b2026a39a941f27a716a8e45ed4429b53cbf5a3f3e6e8c87b",
    ("maxtheta", "winner"): "3382b8aa654d5b67cd9fe86d6cfbf6061d44c67dbe9b046968f019614dcee424",
}


@pytest.mark.parametrize("policy,feedback", GOLDEN, ids=[f"{p}-{f}" for p, f in GOLDEN])
def test_regret_csv_matches_golden_hash(tmp_path, policy, feedback):
    config = ExperimentConfig(
        policy=policy, feedback=feedback, n=20, d=5, k=5, T=300, reps=2, seed=0
    )
    path = tmp_path / "regret.csv"
    emit_results(run_experiment(config), path, "csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[policy, feedback]


CARRIED_INVERSE = {
    "winner": "d241ef558d62eb814c763d71981745c17aac311d332ee1a40ae6f7c39853ea5b",
    "ranking": "3a9dff9040036c1f61f412cfcf9ad56b9564efb8664bd7aa7f5f9e34498c6ebb",
}
CARRIED_INVERSE_D12_WINNER = "d7af999c2cceb0b1fdd93a19361cd2f670a7c9e412bf986a9a74073bbc5234ce"


def _carried_inverse_hash(tmp_path, feedback, d=40):
    config = ExperimentConfig(
        policy="cppl", feedback=feedback, n=20, d=d, k=5, T=300, reps=2, seed=0
    )
    path = tmp_path / "regret.csv"
    emit_results(run_experiment(config), path, "csv")
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_carried_inverse_regret_csv_matches_golden_hash(tmp_path):
    assert _carried_inverse_hash(tmp_path, "winner") == CARRIED_INVERSE["winner"]


def test_carried_inverse_ranking_regret_csv_matches_golden_hash(tmp_path):
    assert _carried_inverse_hash(tmp_path, "ranking") == CARRIED_INVERSE["ranking"]


def test_carried_inverse_d12_regret_csv_matches_golden_hash(tmp_path):
    assert _carried_inverse_hash(tmp_path, "winner", d=12) == CARRIED_INVERSE_D12_WINNER
