"""Triplet mining (paper Section III-B).

Offline mining draws positives from aliases, synthetic typo perturbations,
and same-type neighbours, with negatives sampled from random entity labels.
Online mining (second half of training) is the easy-triplet mask that
:meth:`repro.core.pipeline.EmbLookup._batch_loss` applies to each batch.
"""

from repro.triplets.mining import Triplet, TripletMiner, TripletMiningConfig

__all__ = [
    "Triplet",
    "TripletMiner",
    "TripletMiningConfig",
]
