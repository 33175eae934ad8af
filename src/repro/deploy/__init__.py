"""Policy deployment: the trained model as the product.

The training stack (``repro.rl``) produces checkpoints; this package
turns them into served artifacts:

:mod:`repro.deploy.registry`   content-addressed model registry with
                               toolchain-fingerprint validation
:mod:`repro.deploy.policy`     :class:`PolicyRunner` — greedy batched
                               zero-sample inference + verified
                               ``optimize`` with -O3/search fallback
:mod:`repro.deploy.server`     ``repro serve-policy`` — cross-request
                               batched inference on a Unix socket, an
                               op table on :mod:`repro.transport`
:mod:`repro.deploy.client`     futures-based :class:`InferenceClient`,
                               the policy ops on a pipelined
                               :class:`repro.transport.Connection`
"""

from .client import InferenceClient, InferenceError
from .policy import PolicyDecision, PolicyRunner, PolicySpec
from .registry import ModelRegistry, PolicyMismatchError, RegistryError
from .server import PolicyServer, ServerClosing

__all__ = [
    "InferenceClient", "InferenceError",
    "PolicyDecision", "PolicyRunner", "PolicySpec",
    "ModelRegistry", "PolicyMismatchError", "RegistryError",
    "PolicyServer", "ServerClosing",
]
