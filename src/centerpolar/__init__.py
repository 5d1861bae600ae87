"""Class-centric expansion and centripetal-constraint metric learning."""

from .data import (
    BenchmarkSpec,
    CsvFormatError,
    DataSet,
    DomainTransform,
    GenerationError,
    LabeledSample,
    generate_benchmark,
    load_csv,
    save_csv,
)
from .encoder import EncoderModel, Layer
from .evaluation import (
    DomainMetrics,
    RetrievalReport,
    evaluate,
    map_at_r,
    r_precision,
    rank_neighbors,
    recall_at_k,
)
from .expansion import (
    ExpansionConfig,
    ExpansionDivergedError,
    expand_batch,
    expansion_trajectory,
)
from .geometry import (
    CentroidTable,
    DegenerateVectorError,
    compute_centroids,
    euclidean_distance,
    geodesic_distance,
    project_to_sphere,
)
from .losses import (
    LossConfig,
    loss_c3e,
    loss_c4,
    loss_dis,
    loss_dom,
    loss_geo,
    loss_sem_high,
    loss_sem_low,
)
from .tensor import (
    DomainError,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    backward,
    grad_check,
    record,
)
from .trainer import (
    ABLATIONS,
    AdamState,
    CheckpointError,
    TrainConfig,
    TrainReport,
    TrainingDivergedError,
    adam_step,
    c4_equilibrium_probe,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
