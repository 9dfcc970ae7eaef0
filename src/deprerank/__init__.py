"""K-best dependency-parse re-ranking with a recursive convolutional tree scorer."""

from .params import Hyperparams, ParamSet, init_random, load, load_pretrained, save
from .reranker import RerankConfig, rerank_corpus, search_alpha
from .trainer import TrainConfig, grad_check, train
from .treebank import DependencyTree, KBestList, Token, load_conll, parse_conll, read_kbest, uas

__version__ = "0.1.0"

__all__ = [
    "DependencyTree", "Hyperparams", "KBestList", "ParamSet", "RerankConfig",
    "Token", "TrainConfig", "grad_check", "init_random", "load", "load_conll",
    "load_pretrained", "parse_conll", "read_kbest", "rerank_corpus", "save",
    "search_alpha", "train", "uas",
]
