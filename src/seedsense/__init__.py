"""Exact counting, uniform generation, and spaced-seed sensitivity for
score-constrained gapless alignments."""
