// The doubler fixture shared by the cluster and replica-health suites: a
// double -> 2 * double kernel registered as replicas r0, r1, ... and
// spread over the shards of a BlazeCluster.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "b2c/compiler.h"
#include "blaze/cluster.h"
#include "jvm/assembler.h"
#include "s2fa/framework.h"

namespace s2fa::blaze::doubler_test {

using jvm::Assembler;
using jvm::MethodSignature;
using jvm::Type;
using jvm::Value;

// Doubler: double -> 2 * double, batch 8 (the blaze_test kernel).
inline jvm::ClassPool MakePool() {
  jvm::ClassPool pool;
  Assembler a;
  a.Load(Type::Double(), 0).DConst(2.0).DMul().Ret(Type::Double());
  MethodSignature sig;
  sig.params = {Type::Double()};
  sig.ret = Type::Double();
  pool.Define("Doubler").AddMethod(
      jvm::MakeMethod("call", sig, true, 2, a.Finish()));
  return pool;
}

inline b2c::KernelSpec MakeSpec(std::int64_t batch = 8) {
  b2c::KernelSpec spec;
  spec.kernel_name = "doubler";
  spec.klass = "Doubler";
  spec.input.type = Type::Double();
  spec.input.fields = {{"x", Type::Double(), 1, false}};
  spec.output.type = Type::Double();
  spec.output.fields = {{"y", Type::Double(), 1, false}};
  spec.batch = batch;
  return spec;
}

inline Dataset DoublerInput(int n, int base = 0) {
  Dataset input;
  Column x;
  x.field = "x";
  x.element = Type::Double();
  for (int i = 0; i < n; ++i) x.data.push_back(Value::OfDouble(base + i));
  input.AddColumn(x);
  return input;
}

// A runtime with `replicas` doubler copies registered as r0, r1, ... and a
// cluster that spreads them one per shard across `shards` shards
// (round-robin when replicas > shards).
struct Fixture {
  BlazeRuntime runtime;
  explicit Fixture(int replicas = 2) {
    jvm::ClassPool pool = MakePool();
    Artifact artifact =
        BuildWithConfig(pool, MakeSpec(8), merlin::DesignConfig{});
    for (int i = 0; i < replicas; ++i) {
      RegisterWithBlaze(runtime, "r" + std::to_string(i), artifact);
    }
  }
  BlazeCluster MakeCluster(ClusterOptions options = {}, int shards = 2,
                           int replicas = 2) {
    BlazeCluster cluster(runtime, options);
    for (int s = 0; s < shards; ++s) cluster.AddShard();
    for (int i = 0; i < replicas; ++i) {
      cluster.AddReplica(static_cast<std::size_t>(i % shards), "doubler",
                         "r" + std::to_string(i));
    }
    return cluster;
  }
};

inline ClusterRequest Req(int records, double arrival_us = 0,
                   const std::string& tenant = "default", int base = 0) {
  ClusterRequest request;
  request.kernel = "doubler";
  request.input = DoublerInput(records, base);
  request.arrival_us = arrival_us;
  request.tenant = tenant;
  return request;
}

// Every served request must return exactly its doubled input, whatever path
// (accelerator, host, hedge, failover retry) served it.
inline void ExpectDoubled(const ClusterRequestOutcome& outcome, int records,
                   int base = 0) {
  ASSERT_EQ(outcome.output.num_records(), static_cast<std::size_t>(records))
      << "request " << outcome.id;
  const Column& y = outcome.output.ColumnByField("y");
  for (int i = 0; i < records; ++i) {
    EXPECT_DOUBLE_EQ(y.data[static_cast<std::size_t>(i)].AsDouble(),
                     2.0 * (base + i))
        << "request " << outcome.id << " record " << i;
  }
}

}  // namespace s2fa::blaze::doubler_test
