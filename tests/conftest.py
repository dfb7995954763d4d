"""Trained networks shared by the whole session, each built once on first use.
Tests only read them: at teardown each fixture checks that every parameter and
gate array of its networks still holds the bytes it held when training ended."""

import pytest

from betadrop.data import synthetic_planted_sparsity, synthetic_two_cluster
from betadrop.layers import build_mlp
from betadrop.training import TrainConfig, finetune_bb, pretrain, run_stages


def array_bytes(*nets):
    return [p.value.tobytes() for net in nets for p in net.parameters()] + [
        v.tobytes() for net in nets for g in net.gates() for v in g.arrays().values()]


@pytest.fixture(scope="session")
def two_stage():
    """(train, test, BB-pruned net, DBB net): a 20-16-2 ``mlp`` on two clusters,
    5 + 60 BB + 40 DBB epochs.  The BB net's gates are the DBB net's before DBB."""
    train, test = synthetic_two_cluster(2000, 20, seed=0).split(0.15, seed=0)
    net = build_mlp((20, 16, 2), seed=0)
    cfg = TrainConfig(batch_size=100, lr_variational=0.02, seed=0)
    pretrain(net, train, cfg, epochs=5)
    bb_net, dbb_net, _ = run_stages(net, train, test, cfg, bb_epochs=60, dbb_epochs=40)
    before = array_bytes(bb_net, dbb_net)
    yield train, test, bb_net, dbb_net
    assert array_bytes(bb_net, dbb_net) == before, "a test changed the shared two-stage nets"


@pytest.fixture(scope="session")
def planted_bb():
    """``planted_bb(seed)``: planted-sparsity data (2000 x 20, 4 signals) and a
    20-32-2 ``mlp`` trained on it for 5 + 100 BB epochs, built once per seed."""
    built = {}

    def build(seed):
        if seed not in built:
            ds = synthetic_planted_sparsity(2000, 20, 4, seed=seed)
            net = build_mlp((20, 32, 2), seed=seed)
            cfg = TrainConfig(batch_size=100, lr_variational=0.02, seed=seed)
            pretrain(net, ds, cfg, epochs=5)
            finetune_bb(net, ds, cfg, epochs=100)
            built[seed] = ds, net, array_bytes(net)
        return built[seed][:2]

    yield build
    for seed, (_, net, before) in built.items():
        assert array_bytes(net) == before, f"a test changed the shared planted net of seed {seed}"
