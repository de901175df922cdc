"""Risk-aware emergency routing with forecast uncertainty.

The paper motivates uncertainty quantification with emergency management:
"route planning for rescuing vehicles and ambulances" needs not only the
expected traffic but also how wrong that expectation could be.  This example
shows the pattern on a synthetic corridor network:

1. build a road network with several corridors between a depot and a hospital;
2. train DeepSTUQ on its (synthetic) traffic;
3. enumerate candidate routes with NetworkX;
4. score each route by the *upper confidence bound* of the forecast flow along
   its segments (a proxy for worst-case congestion / travel time);
5. compare the route a point forecast would choose with the route the
   risk-aware criterion chooses.

Run with ``python examples/emergency_routing.py --fast``.
"""

from __future__ import annotations

import argparse
from typing import List, Sequence

import networkx as nx
import numpy as np

from repro.core import AWAConfig, TrainingConfig
from repro.data import TrafficData, generate_traffic, train_val_test_split
from repro.graph import corridor_network
from repro.uq import DeepSTUQ
from repro.utils import format_table


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="shorter training")
    parser.add_argument("--num-sensors", type=int, default=24)
    parser.add_argument("--seed", type=int, default=7)
    return parser.parse_args()


def route_scores(
    route: Sequence[int],
    mean: np.ndarray,
    upper: np.ndarray,
    horizon_step: int,
) -> tuple:
    """Expected and worst-case congestion of a route at a given horizon step."""
    expected = float(np.mean([mean[horizon_step, node] for node in route]))
    worst_case = float(np.mean([upper[horizon_step, node] for node in route]))
    return expected, worst_case


def main() -> None:
    args = parse_args()
    rng = np.random.default_rng(args.seed)

    # 1. Road network: parallel corridors joined at interchanges.
    network = corridor_network(args.num_sensors, num_corridors=3, rng=rng, name="emergency-grid")
    values = generate_traffic(network, num_steps=288 * (3 if args.fast else 7), seed=args.seed)
    traffic = TrafficData(name="emergency", values=values, network=network)
    train, val, test = train_val_test_split(traffic)
    depot, hospital = 0, args.num_sensors - 1
    print(f"Network: {network.num_nodes} sensors, {network.num_edges} segments; "
          f"routing from sensor {depot} (depot) to sensor {hospital} (hospital)")

    # 2. Train DeepSTUQ.
    history, horizon = (6, 3) if args.fast else (12, 12)
    method = DeepSTUQ(
        network.num_nodes,
        config=TrainingConfig(
            history=history, horizon=horizon, hidden_dim=8 if args.fast else 16,
            embed_dim=3, epochs=4 if args.fast else 12,
            mc_samples=3 if args.fast else 10, encoder_dropout=0.05,
        ),
        awa_config=AWAConfig(epochs=2 if args.fast else 4),
    )
    print("Training DeepSTUQ ...")
    method.fit(train, val)

    # 3. Forecast the situation right now (last available history window).
    current_history = test.values[-history:][None, :, :]
    result = method.predict(current_history)
    lower, upper = result.interval()
    mean, upper = result.mean[0], upper[0]

    # 4. Candidate routes between depot and hospital.
    graph = network.to_networkx()
    routes: List[List[int]] = list(
        nx.all_simple_paths(graph, depot, hospital, cutoff=network.num_nodes)
    )[:6]
    if not routes:
        routes = [nx.shortest_path(graph, depot, hospital)]
    horizon_step = min(2, horizon - 1)  # plan for ~15 minutes ahead

    rows = []
    for index, route in enumerate(routes):
        expected, worst = route_scores(route, mean, upper, horizon_step)
        rows.append([index, len(route), expected, worst])
    print()
    print(format_table(
        ["route", "# sensors", "expected flow", "95% worst-case flow"],
        rows,
        precision=1,
        title=f"Candidate routes, {5 * (horizon_step + 1)} minutes ahead",
    ))

    # 5. Decision: lowest expected congestion vs lowest worst-case congestion.
    by_expected = min(range(len(routes)), key=lambda i: rows[i][2])
    by_worst_case = min(range(len(routes)), key=lambda i: rows[i][3])
    print(f"\nPoint-forecast choice     : route {by_expected}")
    print(f"Risk-aware (UCB) choice   : route {by_worst_case}")
    if by_expected != by_worst_case:
        print("The two criteria disagree: the uncertainty-aware planner avoids a route "
              "whose congestion forecast is good on average but unreliable.")
    else:
        print("Both criteria agree here; the interval width still quantifies how much "
              "slack the dispatcher should plan for.")


if __name__ == "__main__":
    main()
