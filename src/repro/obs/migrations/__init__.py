"""The perf history's migration chain, applied by
:class:`~repro.obs.history.HistoryStore` under the policy of
:mod:`repro.campaign.migrations`."""
