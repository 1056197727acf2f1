"""Neural-network substrate: workload models and vision-backend algorithms.

The paper never modifies the CNNs it uses (YOLOv2, Tiny YOLO, MDNet); it only
changes how often they run.  This package therefore provides two things:

* **Compute models** — layer-accurate MAC/weight/activation accounting for
  the three networks (Table 2) plus the hand-crafted/CNN reference points of
  Fig. 1, which feed the systolic-array performance model in
  :mod:`repro.soc`.
* **Functional backends** — a simulated CNN detector/tracker whose accuracy
  profile (localisation noise, miss rate, false positives) is calibrated per
  network, and a real pixel-domain baseline (the NCC template tracker) that
  exercises genuine image-processing code paths.  See DESIGN.md,
  "Substitutions".
"""

from .layers import ConvLayer, FullyConnectedLayer, LayerSpec, PoolLayer
from .models import (
    DetectorReference,
    NetworkSpec,
    FIG1_REFERENCE_DETECTORS,
    build_mdnet,
    build_tiny_yolo,
    build_yolo_v2,
    get_network,
)
from .profiles import AccuracyProfile, MDNET_PROFILE, TINY_YOLO_PROFILE, YOLO_V2_PROFILE
from .detector import SimulatedCNNDetector
from .tracker import SimulatedCNNTracker
from .classical import NCCTemplateTracker

__all__ = [
    "LayerSpec",
    "ConvLayer",
    "PoolLayer",
    "FullyConnectedLayer",
    "NetworkSpec",
    "DetectorReference",
    "FIG1_REFERENCE_DETECTORS",
    "build_yolo_v2",
    "build_tiny_yolo",
    "build_mdnet",
    "get_network",
    "AccuracyProfile",
    "YOLO_V2_PROFILE",
    "TINY_YOLO_PROFILE",
    "MDNET_PROFILE",
    "SimulatedCNNDetector",
    "SimulatedCNNTracker",
    "NCCTemplateTracker",
]
