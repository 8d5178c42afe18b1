"""Multi-level hp finite elements on overlay meshes, with embedded-domain
quadrature and a deterministic simulated multi-rank pipeline."""

from .basis import (Basis, DofMap, PolynomialOrderField, enumerate_dofs,
                    entity_mode_count)
from .benchmarks import RunConfig, lshape_mesh_spec, run_benchmark
from .distributed import (DistributedSystem, LeafBlocks, SolverError,
                          StepReport, distribute_dofs_graph,
                          exchange_and_assemble, integrate_rank_system,
                          parallel_cg, run_step)
from .mesh import (BaseMeshSpec, Mesh, MeshError, PatchSpec, create_base_mesh,
                   export_mesh_xml)
from .partition import (compute_leaf_weights, hilbert_index,
                        partition_contiguous, partition_leaves, partition_sfc,
                        weighted_imbalance)
from .physics import (DirichletMap, LShapeSolution, energy_error,
                      integrate_leaves, leaf_systems)
from .quadrature import (Disk, EmbeddedDomain, HalfPlane, LeafRule, Rect,
                         box_rule, gauss_rule_1d, geometry_from_json,
                         indicator_area, leaf_rule)

__version__ = "0.1.0"
