"""Semantic video region labeling from propagated context links.

Pipeline: detections are associated into class-tagged trajectory hypotheses,
the regions of the covered frames become annotated data, co-occurring label
pairs form observed links on a k-NN similarity graph, a two-pass propagation
predicts link scores between all region pairs, and a CRF combining appearance
unaries with link-derived pairwise costs assigns the final labels.
"""

from .context import build_observed_links, extract_exemplars
from .crf import (CrfProblem, Labeling, PairwiseTerms, UnaryModel, beta_adaptive,
                  brute_force_oracle, build_pairwise, energy, infer, qpbo_fuse,
                  train_unary, unary_potentials)
from .evaluation import EvalReport, iou_per_class
from .graph import SimilarityGraph, build_knn_graph
from .pipeline import PipelineConfig, PipelineResult, run_pipeline
from .propagation import (LinkScoreMatrix, dense_two_pass_limit, predict_all_links,
                          propagate_column_pass, propagate_row_pass, resolvent)
from .regions import (Detection, IngestError, Region, VideoSequence,
                      filter_detections, load_ground_truth, load_sequence,
                      save_sequence)
from .synthetic import (DetectionModel, ScriptedObject, SynthSpec,
                        ambiguity_scenario, generate)
from .tracking import (TrajectoryHypothesis, annotated_frames,
                       associate_trajectories, iou_box)

__version__ = "0.1.0"
