"""Cross-species phenotype transfer through an ortholog-masked linear
conversion layer prepended to a frozen feedforward predictor."""

from .errors import InvalidStateError, NumericalError, ParseError, UnknownGeneError
from .orthograph import (
    BiadjacencyMatrix,
    RbhConfig,
    ScoreTable,
    best_hits,
    build_rbh_graph,
    graph_to_tsv,
    tsv_to_graph,
)
from .netcore import (
    FeedforwardNetwork,
    ForwardCache,
    Layer,
    MaskedLinearLayer,
)
from .training import (
    TrainConfig,
    TrainReport,
    evaluate,
    initialize_conversion_layer,
    regularization_grad,
    regularization_penalty,
    train_base,
    train_conversion,
)
from .dataio import (
    ExpressionDataset,
    SyntheticBundle,
    SyntheticSpec,
    align_to_genes,
    generate_synthetic,
    read_expression_tsv,
    write_expression_tsv,
)
from .interpret import export_weight_table, support_summary, top_contributors
from .modelio import load_model, model_document, save_model

__version__ = "0.1.0"

__all__ = [
    "BiadjacencyMatrix",
    "ExpressionDataset",
    "FeedforwardNetwork",
    "ForwardCache",
    "InvalidStateError",
    "Layer",
    "MaskedLinearLayer",
    "NumericalError",
    "ParseError",
    "RbhConfig",
    "ScoreTable",
    "SyntheticBundle",
    "SyntheticSpec",
    "TrainConfig",
    "TrainReport",
    "UnknownGeneError",
    "align_to_genes",
    "best_hits",
    "build_rbh_graph",
    "evaluate",
    "export_weight_table",
    "generate_synthetic",
    "graph_to_tsv",
    "initialize_conversion_layer",
    "load_model",
    "model_document",
    "read_expression_tsv",
    "regularization_grad",
    "regularization_penalty",
    "save_model",
    "support_summary",
    "top_contributors",
    "train_base",
    "train_conversion",
    "tsv_to_graph",
    "write_expression_tsv",
]
