"""``repro.nn`` — numpy-backed neural network substrate.

A minimal PyTorch-like stack (autograd tensor, modules, layers, optimizers)
that the MoCoGrad reproduction is built on.  See ``tensor.py`` for the
autodiff engine and DESIGN.md for why this substrate exists.
"""

from . import functional, init
from .attention import MultiHeadSelfAttention, TransformerBlock
from .conv import (
    AvgPool2d,
    Conv2d,
    GlobalAvgPool2d,
    MaxPool2d,
    UpsampleNearest,
    pad2d,
)
from .graph import GraphConv, GraphReadout, normalize_adjacency
from .layers import (
    MLP,
    BatchNorm1d,
    Dropout,
    Embedding,
    GELU,
    Identity,
    LayerNorm,
    LeakyReLU,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from .arena import ParameterArena, packed_segment
from .module import Module, ModuleList, Parameter
from .profile import OpProfile
from .optim import Adam, AdaGrad, Optimizer, RMSProp, SGD
from .schedulers import CosineAnnealing, InversePower, InverseSqrt, Scheduler, StepDecay
from .serialization import load_checkpoint, load_state, save_checkpoint
from .tensor import (
    Tensor,
    as_tensor,
    backward_multi,
    concat,
    register_multi_adjoint,
    inference_mode,
    is_grad_enabled,
    is_inference_mode,
    no_grad,
    stack,
    where,
)
from .utils import (
    clip_grad_norm,
    grad_vector,
    grad_vector_from_slots,
    parameter_vector,
    set_grad_from_vector,
    set_parameters_from_vector,
)

__all__ = [
    "functional",
    "init",
    "Tensor",
    "OpProfile",
    "as_tensor",
    "backward_multi",
    "register_multi_adjoint",
    "concat",
    "stack",
    "where",
    "no_grad",
    "inference_mode",
    "is_grad_enabled",
    "is_inference_mode",
    "Module",
    "ModuleList",
    "Parameter",
    "ParameterArena",
    "packed_segment",
    "Linear",
    "Embedding",
    "Dropout",
    "LayerNorm",
    "BatchNorm1d",
    "Sequential",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "GELU",
    "Identity",
    "MLP",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "UpsampleNearest",
    "pad2d",
    "MultiHeadSelfAttention",
    "TransformerBlock",
    "GraphConv",
    "GraphReadout",
    "normalize_adjacency",
    "Optimizer",
    "SGD",
    "Adam",
    "AdaGrad",
    "RMSProp",
    "Scheduler",
    "StepDecay",
    "CosineAnnealing",
    "InversePower",
    "InverseSqrt",
    "save_checkpoint",
    "load_checkpoint",
    "load_state",
    "grad_vector",
    "grad_vector_from_slots",
    "set_grad_from_vector",
    "parameter_vector",
    "set_parameters_from_vector",
    "clip_grad_norm",
]
