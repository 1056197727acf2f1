"""Network workload models for the paper's three CNNs and Fig. 1 references.

The layer lists follow the published architectures closely enough that the
per-frame compute (GOPS at 60 FPS) matches Table 2 of the paper:

* YOLOv2 (Darknet-19 backbone + detection head, 416x416 input) — ~3.4 TOPS,
* Tiny YOLO (9 conv layers, 416x416 input) — ~0.68 TOPS,
* MDNet (VGG-M conv1-3 + 3 FC layers over candidate crops) — ~0.64 TOPS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .layers import ConvLayer, FullyConnectedLayer, LayerSpec, PoolLayer


@dataclass(frozen=True)
class NetworkSpec:
    """A CNN workload: ordered layers plus per-frame evaluation count."""

    name: str
    input_shape: Tuple[int, int, int]
    layers: Tuple[LayerSpec, ...]
    #: How many times the whole network runs per video frame.  Detection
    #: networks run once; MDNet scores many candidate crops per frame.
    evaluations_per_frame: int = 1
    #: Bytes per weight/activation value (8-bit quantised inference).
    bytes_per_value: int = 1

    # ------------------------------------------------------------------
    # Aggregate compute
    # ------------------------------------------------------------------
    @property
    def macs_per_evaluation(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def ops_per_evaluation(self) -> int:
        return sum(layer.ops for layer in self.layers)

    @property
    def macs_per_frame(self) -> int:
        return self.macs_per_evaluation * self.evaluations_per_frame

    @property
    def ops_per_frame(self) -> int:
        return self.ops_per_evaluation * self.evaluations_per_frame

    def gops_at_fps(self, fps: float = 60.0) -> float:
        """Giga-operations per second required to sustain ``fps`` (Table 2)."""
        return self.ops_per_frame * fps / 1e9

    # ------------------------------------------------------------------
    # Aggregate storage / traffic
    # ------------------------------------------------------------------
    @property
    def total_parameters(self) -> int:
        return sum(layer.parameters for layer in self.layers)

    @property
    def weight_bytes(self) -> int:
        return self.total_parameters * self.bytes_per_value

    def conv_layers(self) -> List[ConvLayer]:
        return [layer for layer in self.layers if isinstance(layer, ConvLayer)]

    def describe(self) -> str:
        """One-line summary used by examples and reports."""
        return (
            f"{self.name}: {len(self.layers)} layers, "
            f"{self.macs_per_frame / 1e9:.1f} GMACs/frame, "
            f"{self.gops_at_fps(60.0):.0f} GOPS @ 60 FPS"
        )


class _LayerChain:
    """Helper that threads feature-map shapes through a stack of layers."""

    def __init__(self, height: int, width: int, channels: int) -> None:
        self.height = height
        self.width = width
        self.channels = channels
        self.layers: List[LayerSpec] = []

    def conv(self, name: str, out_channels: int, kernel: int, stride: int = 1) -> "_LayerChain":
        layer = ConvLayer(
            name=name,
            input_height=self.height,
            input_width=self.width,
            in_channels=self.channels,
            out_channels=out_channels,
            kernel_size=kernel,
            stride=stride,
        )
        self.layers.append(layer)
        self.height, self.width, self.channels = layer.output_shape
        return self

    def pool(self, name: str, kernel: int = 2, stride: int = 2) -> "_LayerChain":
        layer = PoolLayer(
            name=name,
            input_height=self.height,
            input_width=self.width,
            channels=self.channels,
            kernel_size=kernel,
            stride=stride,
        )
        self.layers.append(layer)
        self.height, self.width, self.channels = layer.output_shape
        return self

    def fc(self, name: str, out_features: int) -> "_LayerChain":
        in_features = self.height * self.width * self.channels
        layer = FullyConnectedLayer(name=name, in_features=in_features, out_features=out_features)
        self.layers.append(layer)
        self.height, self.width, self.channels = 1, 1, out_features
        return self


def build_yolo_v2(input_height: int = 480, input_width: int = 640) -> NetworkSpec:
    """YOLOv2: Darknet-19 backbone plus the detection head.

    The default input is 480p (640x480), the smartphone-camera resolution the
    paper uses when quoting compute requirements (Fig. 1 / Table 2); at this
    size the network needs ~3.1 TOPS to sustain 60 FPS.
    """
    chain = _LayerChain(input_height, input_width, 3)
    chain.conv("conv1", 32, 3).pool("pool1")
    chain.conv("conv2", 64, 3).pool("pool2")
    chain.conv("conv3", 128, 3).conv("conv4", 64, 1).conv("conv5", 128, 3).pool("pool3")
    chain.conv("conv6", 256, 3).conv("conv7", 128, 1).conv("conv8", 256, 3).pool("pool4")
    chain.conv("conv9", 512, 3).conv("conv10", 256, 1).conv("conv11", 512, 3)
    chain.conv("conv12", 256, 1).conv("conv13", 512, 3).pool("pool5")
    chain.conv("conv14", 1024, 3).conv("conv15", 512, 1).conv("conv16", 1024, 3)
    chain.conv("conv17", 512, 1).conv("conv18", 1024, 3)
    # Detection head.
    chain.conv("conv19", 1024, 3).conv("conv20", 1024, 3)
    # Passthrough/reorg path is modelled as the extra input channels (64*4)
    # concatenated before conv21.
    chain.channels += 256
    chain.conv("conv21", 1024, 3)
    chain.conv("conv22", 425, 1)
    return NetworkSpec(
        name="YOLOv2",
        input_shape=(input_height, input_width, 3),
        layers=tuple(chain.layers),
    )


def build_tiny_yolo(input_height: int = 480, input_width: int = 640) -> NetworkSpec:
    """Tiny YOLO: the heavily truncated 9-conv variant of YOLOv2.

    At the paper's 480p input this works out to ~0.68 TOPS at 60 FPS
    (Table 2 lists 675 GOPS).
    """
    chain = _LayerChain(input_height, input_width, 3)
    chain.conv("conv1", 16, 3).pool("pool1")
    chain.conv("conv2", 32, 3).pool("pool2")
    chain.conv("conv3", 64, 3).pool("pool3")
    chain.conv("conv4", 128, 3).pool("pool4")
    chain.conv("conv5", 256, 3).pool("pool5")
    chain.conv("conv6", 512, 3).pool("pool6", kernel=2, stride=1)
    chain.conv("conv7", 1024, 3)
    chain.conv("conv8", 1024, 3)
    chain.conv("conv9", 425, 1)
    return NetworkSpec(
        name="TinyYOLO",
        input_shape=(input_height, input_width, 3),
        layers=tuple(chain.layers),
    )


def build_mdnet(crop_size: int = 107, candidates_per_frame: int = 23) -> NetworkSpec:
    """MDNet: VGG-M conv1-3 plus fc4-6, evaluated over candidate crops.

    The online tracker scores candidate windows around the previous target
    location every frame.  The paper does not state its candidate budget but
    reports 635 GOPS at 60 FPS (Table 2); with the VGG-M conv1-3 trunk that
    corresponds to roughly two dozen full crop evaluations per frame (a real
    deployment shares conv features across candidates), so the default
    ``candidates_per_frame`` is calibrated to that figure.
    """
    chain = _LayerChain(crop_size, crop_size, 3)
    chain.conv("conv1", 96, 7, stride=2).pool("pool1", kernel=3, stride=2)
    chain.conv("conv2", 256, 5, stride=2).pool("pool2", kernel=3, stride=2)
    chain.conv("conv3", 512, 3, stride=1)
    chain.fc("fc4", 512)
    chain.fc("fc5", 512)
    chain.fc("fc6", 2)
    return NetworkSpec(
        name="MDNet",
        input_shape=(crop_size, crop_size, 3),
        layers=tuple(chain.layers),
        evaluations_per_frame=candidates_per_frame,
    )


_NETWORK_BUILDERS = {
    "yolov2": build_yolo_v2,
    "tinyyolo": build_tiny_yolo,
    "mdnet": build_mdnet,
}


def get_network(name: str) -> NetworkSpec:
    """Look up a network by (case-insensitive) name."""
    key = name.lower().replace("_", "").replace("-", "").replace(" ", "")
    if key not in _NETWORK_BUILDERS:
        raise KeyError(f"unknown network '{name}'; available: {sorted(_NETWORK_BUILDERS)}")
    return _NETWORK_BUILDERS[key]()


# ----------------------------------------------------------------------
# Fig. 1 reference detectors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DetectorReference:
    """Accuracy/compute reference point for Fig. 1.

    ``tops_at_480p60`` is the compute requirement in Tera-ops/s to run the
    detector at 60 FPS on 480p video; ``accuracy_percent`` is the PASCAL VOC
    2007 mAP reported in the literature.  ``is_cnn`` distinguishes the
    hand-crafted approaches from the CNN family.
    """

    name: str
    tops_at_480p60: float
    accuracy_percent: float
    is_cnn: bool


FIG1_REFERENCE_DETECTORS: Tuple[DetectorReference, ...] = (
    DetectorReference("Haar", 0.0002, 22.0, is_cnn=False),
    DetectorReference("HOG", 0.001, 33.0, is_cnn=False),
    DetectorReference("Tiny YOLO", 0.48, 57.1, is_cnn=True),
    DetectorReference("SSD", 2.1, 74.3, is_cnn=True),
    DetectorReference("YOLOv2", 2.4, 76.8, is_cnn=True),
    DetectorReference("Faster R-CNN", 9.6, 73.2, is_cnn=True),
)

#: Peak compute available to a CNN accelerator within a ~1 W mobile power
#: budget (the horizontal line in Fig. 1).
MOBILE_TOPS_BUDGET = 1.0
