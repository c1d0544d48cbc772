"""Evaluation: ground truth, precision metrics, simulated user study, Table 1.

The paper's §5 evaluation reports *average precision at 20, 30, 50 and 100
retrieved frames* for each feature and for the combined ranking, with
relevance established by a user study over a category-organized corpus.
This package reproduces that measurement chain:

- :mod:`repro.eval.groundtruth` -- relevance = same ground-truth category.
- :mod:`repro.eval.userstudy` -- a panel of noisy simulated judges whose
  majority vote replaces the paper's human judgments.
- :mod:`repro.eval.metrics` -- precision@k, recall, AP.
- :mod:`repro.eval.table1` -- the experiment driver that regenerates
  Table 1 end to end.
- :mod:`repro.eval.clipquery` -- video P@5 / MAP of query by clip.
"""

from repro.eval.groundtruth import CategoryGroundTruth
from repro.eval.metrics import average_precision, precision_at_k, recall_at_k
from repro.eval.table1 import Table1Result, run_table1
from repro.eval.userstudy import JudgePanel, NoisyJudge

__all__ = [
    "CategoryGroundTruth",
    "precision_at_k",
    "recall_at_k",
    "average_precision",
    "NoisyJudge",
    "JudgePanel",
    "run_table1",
    "Table1Result",
]
