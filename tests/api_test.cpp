// Tests for the public hydra:: API surface: compile helpers, deployment
// plumbing and its error paths, configuration helpers, and the IR dump.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "forwarding/ipv4_ecmp.hpp"
#include "hydra/hydra.hpp"
#include "net/network.hpp"

namespace hydra {
namespace {

struct Fixture {
  net::LeafSpine fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net{fabric.topo};
  std::shared_ptr<fwd::Ipv4EcmpProgram> routing =
      fwd::install_leaf_spine_routing(net, fabric);
};

TEST(Api, CompileSharedProducesDeployableChecker) {
  auto c = compile_shared("{ } { } { }", "noop");
  EXPECT_EQ(c->name, "noop");
  Fixture f;
  const int dep = f.net.deploy(c);
  EXPECT_EQ(dep, 0);
  EXPECT_EQ(f.net.deployment_count(), 1);
  EXPECT_EQ(&f.net.checker(dep), c.get());
}

TEST(Api, CompileLibraryCheckerByName) {
  auto c = compile_library_checker("valley_free");
  EXPECT_EQ(c->name, "valley_free");
  EXPECT_GT(c->p4_loc, 0);
  EXPECT_THROW(compile_library_checker("no_such_checker"),
               std::invalid_argument);
}

TEST(Api, DeployNullCheckerThrows) {
  Fixture f;
  EXPECT_THROW(f.net.deploy(nullptr), std::invalid_argument);
}

TEST(Api, CheckerTableUnknownVariableThrows) {
  Fixture f;
  const int dep = f.net.deploy(compile_library_checker("multi_tenancy"));
  EXPECT_THROW(f.net.checker_table(dep, f.fabric.leaves[0], "nope"),
               std::invalid_argument);
  EXPECT_NO_THROW(f.net.checker_table(dep, f.fabric.leaves[0], "tenants"));
}

TEST(Api, CheckerRegisterLookup) {
  Fixture f;
  const int dep =
      f.net.deploy(compile_library_checker("dc_uplink_load_balance"));
  auto& reg = f.net.checker_register(dep, f.fabric.leaves[0], "left_load");
  EXPECT_EQ(reg.read(0).value(), 0u);
  EXPECT_THROW(f.net.checker_register(dep, f.fabric.leaves[0], "nope"),
               std::invalid_argument);
}

TEST(Api, LoadBalanceNeedsTwoSpines) {
  auto fabric = net::make_leaf_spine(2, 1, 2);
  net::Network net(fabric.topo);
  const int dep = net.deploy(compile_library_checker("dc_uplink_load_balance"));
  EXPECT_THROW(configure_load_balance(net, dep, fabric, 100),
               std::invalid_argument);
}

TEST(Api, SwitchTagIsNonZero) {
  // 0 is reserved as "no switch" (the path-validation sentinel).
  EXPECT_EQ(checker_switch_tag(0), 1u);
  EXPECT_EQ(checker_switch_tag(41), 42u);
}

TEST(Api, HostAccessorRejectsSwitches) {
  Fixture f;
  EXPECT_THROW(f.net.host(f.fabric.leaves[0]), std::invalid_argument);
  EXPECT_NO_THROW(f.net.host(f.fabric.hosts[0][0]));
}

TEST(Api, SetProgramRejectsHosts) {
  Fixture f;
  EXPECT_THROW(f.net.set_program(f.fabric.hosts[0][0], f.routing),
               std::invalid_argument);
}

TEST(Api, IrDumpListsStructure) {
  auto c = compile_library_checker("multi_tenancy");
  const std::string dump = c->ir.dump();
  EXPECT_NE(dump.find("checker multi_tenancy"), std::string::npos);
  EXPECT_NE(dump.find("table tenants"), std::string::npos);
  EXPECT_NE(dump.find("init:"), std::string::npos);
  EXPECT_NE(dump.find("check:"), std::string::npos);
  EXPECT_NE(dump.find("reject"), std::string::npos);
}

TEST(Api, MultipleDeploymentsIndexIndependently) {
  Fixture f;
  const int a = f.net.deploy(compile_library_checker("valley_free"));
  const int b = f.net.deploy(compile_library_checker("loops"));
  EXPECT_NE(a, b);
  EXPECT_EQ(f.net.checker(a).name, "valley_free");
  EXPECT_EQ(f.net.checker(b).name, "loops");
  // Config for one deployment must not leak into the other.
  configure_valley_free(f.net, a, f.fabric);
  EXPECT_EQ(f.net.checker(b).ir.find_table("is_spine_switch"), -1);
}

TEST(Api, AllSwitchWritesNameTheirCaller) {
  Fixture f;
  const int dep = f.net.deploy(compile_library_checker("stateful_firewall"));
  const auto error = [](const std::function<void()>& call) {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const auto insert = [&](int id) {
    return error([&] {
      f.net.dict_insert_all(id, "allowed", {BitVec(32, 1), BitVec(32, 2)},
                            {BitVec::from_bool(true)});
    });
  };
  const auto config = [&](int id) {
    return error([&] { f.net.set_config_all(id, "allowed", {}); });
  };
  EXPECT_EQ(insert(dep + 1), "dict_insert_all: deployment id 1 out of range");
  EXPECT_EQ(config(dep + 1), "set_config_all: deployment id 1 out of range");
  f.net.undeploy(dep);
  EXPECT_EQ(insert(dep),
            "dict_insert_all: deployment id 0 is retired (checker "
            "'stateful_firewall' was undeployed)");
  EXPECT_EQ(config(dep),
            "set_config_all: deployment id 0 is retired (checker "
            "'stateful_firewall' was undeployed)");
}

TEST(Api, ClearReportsResets) {
  Fixture f;
  f.net.deploy(compile_library_checker("stateful_firewall"));
  f.net.send_from_host(
      f.fabric.hosts[0][0],
      p4rt::make_udp(f.net.topo().node(f.fabric.hosts[0][0]).ip,
                     f.net.topo().node(f.fabric.hosts[1][0]).ip, 1, 2, 10));
  f.net.events().run();
  EXPECT_FALSE(f.net.reports().empty());
  f.net.clear_reports();
  EXPECT_TRUE(f.net.reports().empty());
}

}  // namespace
}  // namespace hydra
