"""Desk-scale lab for noise-robust self-supervised speech pre-training.

A tiny transformer encoder learns masked codeword prediction on a synthetic
speech-like corpus, then continues pre-training on noise-augmented inputs
against its frozen clean twin, regularized by variance-invariance-covariance
terms on sampled frame pairs. The package ships the corpus generator, the
k-means pseudo-labeler, hand-derived backward passes with a finite-difference
checking harness, the two-stage trainer, representation-statistics reports,
and a command-line pipeline.
"""

__version__ = "0.1.0"

from .codebook import Codebook, assign, fit_kmeans
from .losses import LossBreakdown, SampledPair, VicWeights, covariance, invariance, \
    masked_prediction_loss, sample_frames, total_loss, variance
from .model import EncoderConfig, EncoderState, MaskSpec, apply_mask, backward, forward, \
    init_encoder, predict_codewords
from .numerics import GradCheckReport, grad_check, softmax_xent
from .signal import NoisySample, Utterance, Waveform, build_corpus, extract_features, \
    frame_labels, measure_snr, mix_at_snr, synth_noise, synth_utterance
from .trainer import AdamState, Corpus, TrainConfig, TrainLog, adam_step, make_batch, \
    pretrain_clean, pretrain_noisy

__all__ = [
    "Codebook", "assign", "fit_kmeans",
    "LossBreakdown", "SampledPair", "VicWeights", "covariance", "invariance",
    "masked_prediction_loss", "sample_frames", "total_loss", "variance",
    "EncoderConfig", "EncoderState", "MaskSpec", "apply_mask", "backward", "forward",
    "init_encoder", "predict_codewords",
    "GradCheckReport", "grad_check", "softmax_xent",
    "NoisySample", "Utterance", "Waveform", "build_corpus", "extract_features",
    "frame_labels", "measure_snr", "mix_at_snr", "synth_noise", "synth_utterance",
    "AdamState", "Corpus", "TrainConfig", "TrainLog", "adam_step", "make_batch",
    "pretrain_clean", "pretrain_noisy",
]
