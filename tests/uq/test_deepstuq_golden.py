"""DeepSTUQ's forecasts and checkpoint state, pinned bit for bit.

A tiny DeepSTUQ fit (all three stages) is reduced to SHA-256 digests of its
``predict`` and ``predict_single_pass`` outputs and of every ``get_state``
array and the ``get_state`` meta.  The digests were recorded when the three
stages lived in a separate pipeline class that ``DeepSTUQ`` forwarded to, and
the temperature was fitted by L-BFGS; they pin that folding the stages into
the method and fitting the temperature in closed form changed no bit.

Float results depend on the host's floating-point kernels, not only on the
program: on one x86 machine, AVX-512 vs AVX2 NumPy loops crossed with
SkylakeX vs Haswell OpenBLAS kernels gave four different digest sets.  So
the recorded digests are keyed by :func:`kernel_fingerprint`, a pure-NumPy
computation over the same kinds of kernels (transcendentals, reductions and
GEMMs of the model's shapes) that no program change can move.  Digests were
recorded for AVX-512 hosts and for AVX2-only hosts (Haswell or Zen OpenBLAS
kernels); elsewhere the test skips and says why.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.trainer import TrainingConfig
from repro.data import TrafficData, generate_traffic, train_val_test_split
from repro.graph import grid_network
from repro.uq import DeepSTUQ


def kernel_fingerprint() -> str:
    """Digest of NumPy/BLAS results for fixed inputs: which kernels this host runs."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 24))
    values = [
        np.exp(x), np.log(np.abs(x)), np.tanh(x), 1.0 / (1.0 + np.exp(-x)),
        np.sqrt(np.abs(x)), x.sum(axis=0),
    ]
    for left, right in (
        ((64, 24), (24, 16)), ((9, 64, 16), (9, 16, 12)), ((9, 64, 28), (9, 28, 18)),
        ((9, 9), (9, 384)), ((64, 54), (54, 27)),
    ):
        values.append(rng.normal(size=left) @ rng.normal(size=right))
    digest = hashlib.sha256()
    for value in values:
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def fitted_digests() -> dict:
    """Fit the tiny DeepSTUQ and digest everything it predicts and saves."""
    network = grid_network(3, 3)
    traffic = TrafficData(name="golden", values=generate_traffic(network, 300, seed=11), network=network)
    train, val, test = train_val_test_split(traffic)
    config = TrainingConfig(
        history=4, horizon=3, hidden_dim=6, embed_dim=2, epochs=1, batch_size=64,
        mc_samples=3, seed=0,
    )
    method = DeepSTUQ(9, config=config, awa_config={"epochs": 2}).fit(train, val)
    inputs, _ = method._windows(test)
    mc = method.predict(inputs)
    single = method.predict_single_pass(inputs)
    state = method.get_state()
    return {
        "predict": {name: _sha(getattr(mc, name)) for name in ("mean", "aleatoric_var", "epistemic_var")},
        "predict_single_pass": {name: _sha(getattr(single, name)) for name in ("mean", "aleatoric_var")},
        "state_arrays": {name: _sha(value) for name, value in sorted(state["arrays"].items())},
        "state_meta": hashlib.sha256(json.dumps(state["meta"], sort_keys=True).encode()).hexdigest(),
    }


#: kernel fingerprint -> digests recorded with those kernels.
GOLDEN = {
    # AVX-512 NumPy loops, SkylakeX OpenBLAS kernels.
    "85d19f6e1906bcb6ccb1294b6cda77cc4ee8a8752d7198a465e0d89dd42a7988": {
        "predict": {
            "aleatoric_var": "d2913af8d9dd15e891493679bf020ab5c25a5b752c30b265a5edde78418bcabe",
            "epistemic_var": "b40ced40111b61000cb4deb2e44f67ffbe50356877b2d633e56a7e9248b682e9",
            "mean": "4ebc36c3c11272a05e0ceb9e298b0423a753682cc784d6616da715dc39e41e49",
        },
        "predict_single_pass": {
            "aleatoric_var": "696bf3f85b4d3fe0fb58ac757d2fe6235c13aebf5163da8b4311814fee75ac05",
            "mean": "af985b9e5e3833c1f4eeb21a7f56e5734e8dbdf76f43818e08f70e44f201a202",
        },
        "state_arrays": {
            "model.adaptive_adjacency.embeddings": "86b944852b818bd393334f3410f6cea64e22d986c21442695a8d28c9ea214964",
            "model.cells.0.candidate_conv.bias_pool": "ad26185a8b682f43751a528bcbbbe14e785014536b1782fa5d97999b785129ac",
            "model.cells.0.candidate_conv.weight_pool": "2e58fbd009439cbb39040e3f363e14ec5d8e04f00d16cdf4e6cf01e09a2f1072",
            "model.cells.0.gate_conv.bias_pool": "20ec5385ea7702bacf4817723dbdbfb517a8a208d055b617821d2e9ef3ac983e",
            "model.cells.0.gate_conv.weight_pool": "7d448c505989ad61c1f6be54534344659b2c76b7b57a835792aa6569c3ce1807",
            "model.heads.0.bias": "c12f7a339b3453f4ed7ad219c2c56c021b478b13f3f6a1c7b0b45cc3c6db43dd",
            "model.heads.0.weight": "de5c5c8408340dd0c642a748439b44b1949590325b1640f2a25339d97dbaab82",
            "model.heads.1.bias": "b4bf1c342d4d4bafd6a09c4cf26a5c601499e7632f3f80660c0deccbe0966af1",
            "model.heads.1.weight": "21bd53081bc2287556034c41b3f7626090d088c1a37c1cb487a37b85bc7cb469",
        },
        "state_meta": "3c21088758a65b93056ed4595208ebed7a926185485bed0f9efe4960f4cb3429",
    },
    # AVX2 NumPy loops, Haswell (or Zen) OpenBLAS kernels.
    "d69a89c99ac9eb6ee896361ed149e10af937d5a5c7212fc4284de0d94005a44c": {
        "predict": {
            "aleatoric_var": "3714ff4e66ed9b06a23c299c8f0724b546d5d039d330e4338e4dfa98f09eee41",
            "epistemic_var": "303eb27ccd0e9c1fd03156a695bb53d29e8b6bc8bbc15e837994c1be52d0eebc",
            "mean": "a9e01371ad4821f247df6904b4e9e6b7dc3c1b05f0d3948cac25b44d6035c878",
        },
        "predict_single_pass": {
            "aleatoric_var": "65a15b2c70b622dc302c4fa0e5f3a497ca485c0551bfc62d22dc463575536824",
            "mean": "480d590f3b731d1cd94ab93fd8ee9e5ac42323af953072663c1230c911c601c8",
        },
        "state_arrays": {
            "model.adaptive_adjacency.embeddings": "8be9bc4af619864177c22ec6b29fa6c6babba084ea57b734826cc9a325585c00",
            "model.cells.0.candidate_conv.bias_pool": "3733fb60d293d0d6722062e000b2ce7f9fc28cf9486ade4b7206ed26b6e53b1d",
            "model.cells.0.candidate_conv.weight_pool": "fe23645d2e18494b988961b083baffe638608b1e44d1b1d06d9b1f7223c706fc",
            "model.cells.0.gate_conv.bias_pool": "f5b226783d246e4a2485dffb951c6b8b2ea2abd4d310dd9f0c5bb208bf3d20ac",
            "model.cells.0.gate_conv.weight_pool": "a35f48a5d16d4f32263b6ce5a0ce8adcc3109303b49aee6c499ced9592e8c3f6",
            "model.heads.0.bias": "c12f7a339b3453f4ed7ad219c2c56c021b478b13f3f6a1c7b0b45cc3c6db43dd",
            "model.heads.0.weight": "5de9e77481bcdf454fefb2d590e6defd71c6acee55ed239350d42f04d96f1a8c",
            "model.heads.1.bias": "1717a659e6d36eab9d19dac705fa6ae4bd71547805684425082b39a9be3a7ae0",
            "model.heads.1.weight": "21bd53081bc2287556034c41b3f7626090d088c1a37c1cb487a37b85bc7cb469",
        },
        "state_meta": "3c21088758a65b93056ed4595208ebed7a926185485bed0f9efe4960f4cb3429",
    },
}


@pytest.fixture(scope="module")
def expected():
    fingerprint = kernel_fingerprint()
    if fingerprint not in GOLDEN:
        pytest.skip(
            f"no digests recorded for this host's floating-point kernels "
            f"(fingerprint {fingerprint[:12]})"
        )
    return GOLDEN[fingerprint]


@pytest.fixture(scope="module")
def actual(expected):
    return fitted_digests()


@pytest.mark.parametrize(
    "part", ["predict", "predict_single_pass", "state_arrays", "state_meta"]
)
def test_digest_matches_recording(part, actual, expected):
    assert actual[part] == expected[part]
