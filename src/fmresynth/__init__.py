"""Differentiable FM resynthesis: fit constrained FM patches to audio.

The package couples a small reverse-mode autodiff engine with a DX7-style
FM renderer, a causal temporal convolutional decoder, a trainable FFT
reverb and a multi-scale spectral objective, plus the corpus pipeline and
training loop that tie them together.
"""
