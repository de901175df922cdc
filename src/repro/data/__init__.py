"""Traffic-data substrate: synthetic PEMS-style datasets, windowing and loaders.

The real PEMS03/04/07/08 archives are not available offline, so
:mod:`repro.data.pems` generates synthetic traffic-flow series whose graph
topology, sampling interval, length, daily/weekly seasonality and
heteroscedastic noise reproduce the statistical structure the forecasting
and uncertainty-quantification methods rely on (see DESIGN.md, substitution
table).
"""

from repro.data.synthetic import (
    StreamScenarioEvent,
    StreamingTrafficFeed,
    SyntheticTrafficConfig,
    generate_traffic,
)
from repro.data.pems import (
    DATASET_SPECS,
    DatasetSpec,
    available_datasets,
    load_pems,
)
from repro.data.datasets import SlidingWindowDataset, TrafficData, train_val_test_split
from repro.data.scalers import StandardScaler
from repro.data.dataloader import DataLoader

__all__ = [
    "SyntheticTrafficConfig",
    "generate_traffic",
    "StreamScenarioEvent",
    "StreamingTrafficFeed",
    "DatasetSpec",
    "DATASET_SPECS",
    "available_datasets",
    "load_pems",
    "TrafficData",
    "SlidingWindowDataset",
    "train_val_test_split",
    "StandardScaler",
    "DataLoader",
]
