"""Evaluate saliency-map explanations on multi-modal images.

Shapley-based modality importance ground truth, the MSFI localization metric,
six black-box perturbation saliency methods, rank-correlation and
Friedman/Nemenyi statistics, a synthetic multi-modal dataset generator, and a
reference shape classifier so the full pipeline runs end to end.
"""

from .ablate import (
    AblationPolicy,
    AblationVariant,
    ModalityImportance,
    coalition_performance,
    coalition_table,
    exact_shapley,
    normalize_mi,
    shapley_mi,
)
from .metrics import (
    MetricRecord,
    estimated_mi,
    friedman,
    iou,
    kendall_tau_b,
    msfi,
    nemenyi,
)
from .oracle import (
    ClassProbabilities,
    ExternalCommandOracle,
    ShapeRuleClassifier,
    accuracy,
    predict_shape_rule,
)
from .report import MethodSummary, render_matrix, summarize
from .saliency import (
    MethodConfig,
    SaliencyMethod,
    SegmentGrid,
    build_grid,
    feature_ablation,
    feature_permutation,
    generate_maps,
    kernel_shap,
    lime,
    occlusion,
    postprocess,
    shapley_sampling,
)
from .synthgen import (
    ShapeSpec,
    SynthConfig,
    generate_dataset,
    generate_probe,
    probe_modality_importance,
    rasterize_shape,
)
from .tensorio import (
    DatasetManifest,
    DatasetView,
    ManifestRecord,
    MultiModalVolume,
    SaliencyMap,
    SegmentationMask,
    load_dataset,
    load_manifest,
    read_mask,
    read_saliency,
    read_volume,
    save_manifest,
    write_mask,
    write_saliency,
    write_volume,
)

__version__ = "0.1.0"
