"""The per-task backward loop: K full backward passes per step.

This is the literal LibMTL collect stage, and the cost the paper's §VI-C /
Fig. 8 identify as the bottleneck of gradient-manipulation methods.
:class:`MTLTrainer` replaces it with one multi-root walk; the two must
produce the same gradients and trajectories in both gradient spaces.
"""

from __future__ import annotations

from repro.nn.utils import grad_vector
from repro.training import MTLTrainer


class PerTaskTrainer(MTLTrainer):
    """:class:`MTLTrainer` whose collect stage loops over the task losses."""

    def _task_gradients_into(self, loss_tensors, roots, grads, telemetry):
        for k, loss in enumerate(loss_tensors):
            with telemetry.span("task_backward", task=self.tasks[k].name):
                for root in roots:
                    root.zero_grad()
                loss.backward()
                grad_vector(roots, out=grads[k])


#: collect stage name → trainer class running it
TRAINERS = {"multi_root": MTLTrainer, "per_task": PerTaskTrainer}
