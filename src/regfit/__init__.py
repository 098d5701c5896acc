"""regfit: regression and physics-constrained fitting over CSV datasets.

Subpackages by concern:

* ``data``       dataset container, CSV I/O, synthetic generator
* ``losses``     cost functions and their (sub)gradients
* ``linear``     polynomial/RBF features, ridge and lasso solvers
* ``kernels``    interpolation, kNN, kernel ridge, Gaussian-process posterior
* ``network``    feed-forward networks, reverse-mode gradients
* ``optim``      first-order update rules, mini-batch training
* ``resampling`` bootstrap ensembles, bagging, K-fold cross-validation
* ``physics``    RBF collocation for 1-D boundary-value problems
* ``symreg``     genetic-programming symbolic regression
* ``cli``        the ``regfit`` command-line front end
"""

from .data import Dataset, generate_fig2_like, load_csv, save_csv
from .errors import NumericalError, ValidationError

__all__ = [
    "Dataset",
    "generate_fig2_like",
    "load_csv",
    "save_csv",
    "NumericalError",
    "ValidationError",
]

__version__ = "0.1.0"
