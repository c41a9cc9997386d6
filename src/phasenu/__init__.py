"""Phase-space hydrogen bound states via the Nikiforov-Uvarov method,
with the operator-coefficient manifold algebra and independent
finite-difference oracles."""
