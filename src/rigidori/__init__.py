"""Rigid origami kinematics, loop-closure constraints, and rigidity analysis."""

from .analysis import (RigidityReport, angular_velocities, classify,
                       deg_formula_developable, jacobian)
from .collision import (ContactReport, FirstContact, check_state, ear_clip,
                        first_contact)
from .constraints import (ConstraintSystem, Loop, Residual, build_system,
                          is_flat_state, residual, system_from_loops,
                          vertex_loop)
from .genericity import (GenericRigidityReport, PatternGraph, TreePacking,
                         dual_graph, is_generically_rigid, multigraph,
                         pack_spanning_trees, to_dot, verify_packing)
from .kinematics import (PanelFrame, TransferChain, build_spanning_tree,
                         chain_for_path, fold_mesh, fold_point, panel_frames,
                         placement, transfer_matrix)
from .model import (CreasePattern, FoldState, dumps_pattern, load_pattern,
                    pattern_from_dict, pattern_to_dict, save_pattern,
                    validate_pattern)
from .singlevertex import (Degree12Result, SingleVertexCase, VertexSolutionSet,
                           classify_vertex, explore_vertex, solve_degree3,
                           solve_degree_1_2)
from .tracking import (FoldPath, compose_forest, correct_batch,
                       gauss_newton_correct, loop_flex_path,
                       single_loop_system, track_flex, track_to)

__version__ = "0.1.0"
