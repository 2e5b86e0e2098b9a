"""The paper's core contribution (system S7): the Theorem 6 compiler."""

from .forest_compiler import (ForestCompiler, Fragment, chain_info,
                              compile_forest_query, exclusive_assignments,
                              labeled_shapes_for_block, required_comparable,
                              residual_formula, weight_depth_index)
from .pipeline import (CompiledQuery, DynamicQuery, compile_structure_query,
                       plan_cache_key)
from .shapes import Shape, enumerate_shapes
from .stages import (DegeneracyEncoding, color_blocks, forest_from_structure,
                     stage_degeneracy, stage_forest)

__all__ = [
    "Shape", "enumerate_shapes", "ForestCompiler", "Fragment", "chain_info",
    "compile_forest_query", "residual_formula", "exclusive_assignments",
    "required_comparable", "labeled_shapes_for_block", "weight_depth_index",
    "stage_degeneracy", "stage_forest", "forest_from_structure",
    "color_blocks", "DegeneracyEncoding",
    "CompiledQuery", "DynamicQuery", "compile_structure_query",
    "plan_cache_key",
]
