"""betadrop: sparsifying neural networks with variational beta-Bernoulli
dropout gates (input-independent and input-dependent), structured pruning,
and accuracy/FLOPs/memory reporting."""

from .analysis import (
    RuntimeStats,
    class_average_gate_correlation,
    count_flops,
    count_memory,
    evaluate_error,
    gate_masks,
    prune_by_threshold,
    runtime_prune_stats,
    within_cross_gate_correlation,
)
from .autodiff import Node, backward
from .checkpoint import load_checkpoint, save_checkpoint
from .data import Dataset, batch_iterator, load_idx, synthetic_planted_sparsity
from .distributions import (
    concrete_bernoulli_sample,
    gaussian_kl,
    kl_kumaraswamy_beta,
    kumaraswamy_mean,
    kumaraswamy_sample,
    make_rng,
)
from .gates import GateState
from .layers import (
    Network,
    build_lenet5_caffe,
    build_lenet_500_300,
    build_mlp,
    forward_eval,
    forward_train,
    shrink,
)
from .reporting import SparsityReport, emit_report_csv, emit_tradeoff_svg
from .training import (
    AdamState,
    TrainConfig,
    adam_step,
    elbo_loss,
    finetune_bb,
    finetune_dbb,
    pretrain,
    prune,
    run_stages,
)

__version__ = "0.1.0"
