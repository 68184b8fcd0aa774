"""Cross-domain recommendation with per-user generated linear bridges.

Pre-train latent-factor models per domain, learn a small hypernetwork that
emits one linear bridge per user from their attention-pooled source history,
and evaluate cold-start and warm-start transfer against common-bridge and
shared-embedding baselines.
"""

from .bridge import (CharacteristicEncoder, ColdSourceUserError, MetaNetwork,
                     build_context, mapping_oriented_loss, task_oriented_loss,
                     train_common_bridge, train_meta, train_meta_mapping,
                     transform_user, transform_users)
from .data import (DomainDataset, IdMap, MalformedRowError, SplitPlan,
                   build_sequences, dataset_from_columns, load_domain,
                   make_split, overlap_users, verify_split)
from .models import (CmfModel, DomainModel, TrainConfig, cmf_train, pretrain,
                     user_representation)
from .nn import Adam, TrainRecord, TwoLayerNet, fit, grad_check
from .pipeline import (AmazonTask, ExperimentPlan, MetricsReport, PlantedTruth,
                       SyntheticSpec, SyntheticTask, compute_metrics,
                       generate_synthetic, run_cold, run_plan, run_suite,
                       run_warm, sweep_plans, write_suite_csv, write_suite_json)

__version__ = "0.1.0"
