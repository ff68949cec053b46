/** @file Random test generation: constraints and bias properties. */

#include <map>

#include <gtest/gtest.h>

#include "gp/randgen.hh"

namespace gp = mcversi::gp;
using namespace mcversi::gp;
using mcversi::Addr;
using mcversi::Rng;

TEST(RandGen, AddressesAreStrideAlignedAndInRange)
{
    GenParams p;
    p.memSize = 1024;
    p.stride = 16;
    RandomTestGen gen(p);
    Rng rng(1);
    for (int i = 0; i < 2000; ++i) {
        const Addr a = gen.randomAddr(rng);
        EXPECT_LT(a, p.memSize);
        EXPECT_EQ(a % p.stride, 0u);
    }
}

TEST(RandGen, TestHasConfiguredSize)
{
    GenParams p;
    p.testSize = 777;
    RandomTestGen gen(p);
    Rng rng(2);
    gp::Test t = gen.randomTest(rng);
    EXPECT_EQ(t.size(), 777u);
}

TEST(RandGen, PidsWithinThreadCount)
{
    GenParams p;
    p.numThreads = 4;
    p.testSize = 500;
    RandomTestGen gen(p);
    Rng rng(3);
    gp::Test t = gen.randomTest(rng);
    for (const Node &n : t.nodes()) {
        EXPECT_GE(n.pid, 0);
        EXPECT_LT(n.pid, 4);
    }
}

TEST(RandGen, OperationBiasesRoughlyRespected)
{
    // Table 3 biases: Read 50%, Write 42%, rest 8%.
    GenParams p;
    p.testSize = 20000;
    RandomTestGen gen(p);
    Rng rng(4);
    gp::Test t = gen.randomTest(rng);
    std::map<OpKind, int> hist;
    for (const Node &n : t.nodes())
        ++hist[n.op.kind];
    const double total = static_cast<double>(t.size());
    EXPECT_NEAR(hist[OpKind::Read] / total, 0.50, 0.03);
    EXPECT_NEAR(hist[OpKind::Write] / total, 0.42, 0.03);
    EXPECT_NEAR(hist[OpKind::ReadAddrDp] / total, 0.05, 0.02);
    EXPECT_GT(hist[OpKind::ReadModifyWrite], 0);
    EXPECT_GT(hist[OpKind::CacheFlush], 0);
    EXPECT_GT(hist[OpKind::Delay], 0);
}

TEST(RandGen, ConstrainedNodeUsesGivenAddrs)
{
    GenParams p;
    p.memSize = 8192;
    RandomTestGen gen(p);
    Rng rng(5);
    mcversi::AddrSet fit{0x40, 0x80, 0xc0};
    int mem_ops = 0;
    for (int i = 0; i < 500; ++i) {
        Node n = gen.randomNodeConstrained(rng, fit);
        if (n.op.isMem()) {
            ++mem_ops;
            EXPECT_TRUE(fit.count(n.op.addr))
                << "addr 0x" << std::hex << n.op.addr;
        }
    }
    EXPECT_GT(mem_ops, 400);
}

TEST(RandGen, ConstrainedNodeFallsBackWhenEmpty)
{
    GenParams p;
    RandomTestGen gen(p);
    Rng rng(6);
    mcversi::AddrSet empty;
    Node n = gen.randomNodeConstrained(rng, empty);
    if (n.op.isMem()) {
        EXPECT_LT(n.op.addr, p.memSize);
    }
}

TEST(RandGen, DeterministicGivenSeed)
{
    GenParams p;
    p.testSize = 100;
    RandomTestGen gen(p);
    Rng rng1(42);
    Rng rng2(42);
    EXPECT_EQ(gen.randomTest(rng1).fingerprint(),
              gen.randomTest(rng2).fingerprint());
}

TEST(RandGen, DifferentSeedsDiffer)
{
    GenParams p;
    p.testSize = 100;
    RandomTestGen gen(p);
    Rng rng1(42);
    Rng rng2(43);
    EXPECT_NE(gen.randomTest(rng1).fingerprint(),
              gen.randomTest(rng2).fingerprint());
}
