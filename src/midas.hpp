// Umbrella header: the whole public API of the MIDAS library.
//
// Fine-grained headers remain available for faster builds; this is the
// convenience include for applications.
#pragma once

// Finite fields and detection algebras.
#include "gf/field.hpp"
#include "gf/gf256.hpp"
#include "gf/gf64.hpp"
#include "gf/gfsmall.hpp"
#include "gf/zmod.hpp"

// Graphs: CSR, digraphs, generators, I/O, basic algorithms.
#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "graph/digraph.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

// Partitioning and the distributed graph view.
#include "partition/multilevel.hpp"
#include "partition/partition.hpp"
#include "partition/partitioned_graph.hpp"

// The in-process SPMD runtime (MPI substitute) and its cost model.
#include "runtime/comm.hpp"
#include "runtime/cost_model.hpp"

// Multilinear detection: sequential, distributed, generic circuits,
// directed graphs, weighted paths, witnesses.
#include "core/circuit.hpp"
#include "core/detect_directed.hpp"
#include "core/detect_par.hpp"
#include "core/detect_seq.hpp"
#include "core/koutis_reference.hpp"
#include "core/motif.hpp"
#include "core/scan2d.hpp"
#include "core/schedule.hpp"
#include "core/tree_template.hpp"
#include "core/weighted.hpp"
#include "core/witness.hpp"

// Scan statistics and workloads.
#include "scan/outbreak_sim.hpp"
#include "scan/scan_statistics.hpp"
#include "scan/traffic_sim.hpp"

// The batched multi-query detection service (docs/SERVICE.md).
#include "service/artifact_cache.hpp"
#include "service/query.hpp"
#include "service/replay.hpp"
#include "service/service.hpp"

// The binary RPC wire: length-prefixed frames over TCP (docs/NET.md).
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"

// Baselines (color coding, exact oracles).
#include "baseline/brute_force.hpp"
#include "baseline/color_coding.hpp"

// Utilities.
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
