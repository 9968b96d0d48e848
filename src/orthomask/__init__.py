"""Cross-species phenotype transfer through an ortholog-masked linear
conversion layer prepended to a frozen feedforward predictor.

Importing the package loads none of its modules: each public name is
imported from its module on first use, so a command loads only what it
runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the module that defines it
_MODULE_OF = {
    "InvalidStateError": "errors",
    "NumericalError": "errors",
    "ParseError": "errors",
    "UnknownGeneError": "errors",
    "BiadjacencyMatrix": "orthograph",
    "RbhConfig": "orthograph",
    "ScoreTable": "orthograph",
    "build_rbh_graph": "orthograph",
    "graph_to_tsv": "orthograph",
    "tsv_to_graph": "orthograph",
    "FeedforwardNetwork": "netcore",
    "Layer": "netcore",
    "MaskedLinearLayer": "netcore",
    "TrainConfig": "training",
    "TrainReport": "training",
    "evaluate": "training",
    "initialize_conversion_layer": "training",
    "regularization_grad": "training",
    "regularization_penalty": "training",
    "train_base": "training",
    "train_conversion": "training",
    "ExpressionDataset": "dataio",
    "align_to_genes": "dataio",
    "read_expression_tsv": "dataio",
    "write_expression_tsv": "dataio",
    "SyntheticBundle": "synth",
    "SyntheticSpec": "synth",
    "generate_synthetic": "synth",
    "contributor_rows": "interpret",
    "export_weight_table": "interpret",
    "support_summary": "interpret",
    "load_model": "modelio",
    "model_document": "modelio",
    "save_model": "modelio",
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
