"""Kernel Kalman filtering on particle ensembles, with benchmark baselines."""

from . import akkf, baselines, bench, kernels, models
