"""Circuit database: geometry, technology, netlist, serialization."""

from .builder import DesignBuilder
from .design import Blockage, Design
from .geometry import Point, Rect, bounding_box, clamp
from .technology import (
    HORIZONTAL,
    VERTICAL,
    MetalLayer,
    Technology,
    default_metal_stack,
    reduced_metal_stack,
)
from .bookshelf import load_design, save_design
from .transform import (
    add_cell,
    clone_design,
    extract_window,
    mirror_horizontal,
    remove_cell,
)
from .yosys import CellLibrary, load_yosys

__all__ = [
    "Blockage",
    "CellLibrary",
    "Design",
    "DesignBuilder",
    "HORIZONTAL",
    "MetalLayer",
    "Point",
    "Rect",
    "Technology",
    "VERTICAL",
    "add_cell",
    "bounding_box",
    "clamp",
    "clone_design",
    "default_metal_stack",
    "extract_window",
    "load_design",
    "load_yosys",
    "mirror_horizontal",
    "reduced_metal_stack",
    "remove_cell",
    "save_design",
]
