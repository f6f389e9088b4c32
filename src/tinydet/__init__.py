"""tinydet: a desk-scale tiny-object detection lab.

Building blocks: a numpy-backed reverse-mode tensor core, global-context and
foreground-gating feature enhancement over a small feature pyramid, an
adaptive L1/L2 regression loss with analytic verifiers, anchor assignment
audits, a deterministic synthetic-scene generator, and a training/evaluation
harness with CSV/JSON reports.
"""

from .anchors import Box, assign_maxiou, gen_anchors, iou
from .balanced_loss import (
    DCLossParams,
    TheoremReport,
    alpha,
    convexity_region,
    dcloss_grad,
    dcloss_value,
    lipschitz_bound,
    smooth_l1,
    verify_theorem1,
)
from .context import build_cem_params, cem_forward, global_context
from .detector import DetectorConfig, DetectorModel
from .evaluation import Detection, EvalResult, evaluate_ap, nms
from .gating import build_fbsm_params, fbsm_forward, fuse_gates, gate
from .pyramid import BackboneConfig, build_fpn, efpn_bs_forward
from .scenes import Scene, SceneSpec, generate_scene, read_dataset, write_dataset
from .tensor import ParamStore, Tensor
from .training import TrainConfig, evaluate_model, train

__version__ = "0.1.0"
